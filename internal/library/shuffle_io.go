package library

import (
	"fmt"
	goruntime "runtime"
	"slices"
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
	// an output that applies no codec leaves it zero, as it leaves Codec
	// empty.
	RawSize int64
	Codec   string
	// RunSizes are the raw lengths of the sorted runs a spilled ordered
	// output registers back to back as the partition, in order; empty
	// when the partition is one run.
	RunSizes []int64
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
// Partitioner and Codec only. The zero value of every field means
// "default" — most edges carry no payload at all (OrderedEdge encodes none
// for the zero config) — and every field is written by the binary codec
// in payload.go, which an addition must extend.
type OrderedPartitionedConfig struct {
	Partitioner PartitionerSpec
	// Combiner names a RegisterCombineFunc pre-aggregator applied to each
	// sorted run as it is written: every spill and, at Close, the
	// in-memory remainder. Empty means none.
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
// runs, each optionally pre-aggregated by a registered combiner. Close
// merges nothing: per partition (fanned out across a small worker pool)
// it lays the spill runs and the encoded in-memory remainder back to back
// (DMInfo.RunSizes says where each ends, and the consumer's one merge
// reads them as separate runs), compresses the partition with the
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
	// The spill span, a no-op without a journal.
	o.ctx.Services.Timeline.Record(timeline.Event{
		Type:    timeline.ShuffleSpill,
		DAG:     o.ctx.Meta.DAG,
		Vertex:  o.ctx.Meta.Vertex,
		Task:    o.ctx.Meta.Task,
		Attempt: o.ctx.Meta.Attempt,
		Node:    o.ctx.Services.Node,
		Info:    o.ctx.Name,
		Dur:     time.Since(start),
		Val:     records,
	})
	return nil
}

// Close sorts the remainder, lays it after any spill runs per partition,
// applies the wire codec, registers and announces the partitions.
// Per-partition finalisation fans out across a small worker pool —
// partitions are independent, so the output bytes do not depend on worker
// interleaving.
func (o *OrderedPartitionedKVOutput) Close() ([]event.Event, error) {
	ctr := o.ctx.Services.Counters
	sortStart := time.Now()
	o.sb.sort(o.parts)
	if ctr != nil {
		ctr.Add("SHUFFLE_SORT_TIME_NS", time.Since(sortStart).Nanoseconds())
	}

	var (
		wire     = make([][]byte, o.parts)
		rawSizes = make([]int64, o.parts)
		runSizes = make([][]int64, o.parts)
		errMu    sync.Mutex
		firstErr error
	)
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
				if err := o.finalizePartition(p, wire, rawSizes, runSizes); err != nil {
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

	codecName := ""
	if o.codec != nil {
		codecName = o.codec.Name()
	}
	events, err := announce(o.ctx, wire, rawSizes, runSizes, codecName, true)
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
// consumer's vertex manager. rawSizes are the pre-codec sizes of an
// output that applies a codec (the ordered output always passes them); an
// output without one passes nil (its DMInfo carries no RawSize and its
// statistics are the registered sizes). runSizes, nil but from the
// ordered output, are each partition's DMInfo.RunSizes. Only the
// one-partition output, which has no consumer parallelism to estimate,
// announces without stats.
func announce(ctx *runtime.Context, parts [][]byte, rawSizes []int64, runSizes [][]int64, codec string, stats bool) ([]event.Event, error) {
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
		if runSizes != nil {
			info.RunSizes = runSizes[i]
		}
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

// finalizePartition produces one partition's wire buffer, raw size and
// run sizes: the partition's spill runs, then its encoded in-memory
// segment, each still a sorted run of its own, then the block codec, which
// hands the raw buffer back to the pool. A partition of one run records no
// run sizes.
func (o *OrderedPartitionedKVOutput) finalizePartition(p int, wire [][]byte, rawSizes []int64, runSizes [][]int64) error {
	seg := o.sb.partSpan(p)
	n := 0 // the partition's raw size, exact without a combiner
	for _, sp := range o.spills {
		n += len(sp[p])
	}
	for i := range seg {
		n += RecordSize(o.sb.key(&seg[i]), o.sb.val(&seg[i]))
	}
	buf := slices.Grow(getRunBuf(), n)
	var sizes []int64
	for _, sp := range o.spills {
		if run := sp[p]; len(run) > 0 {
			buf = append(buf, run...)
			sizes = append(sizes, int64(len(run)))
			putRunBuf(run)
			sp[p] = nil
		}
	}
	spilled := len(buf)
	buf, err := encodeStream(&refsReader{sb: o.sb, refs: seg}, o.combine, buf, o.ctx.Services.Counters)
	if err != nil {
		return err
	}
	if len(buf) > spilled && len(sizes) > 0 {
		sizes = append(sizes, int64(len(buf)-spilled))
	}
	if len(sizes) > 1 {
		runSizes[p] = sizes
	}
	rawSizes[p] = int64(len(buf))
	if o.codec == nil {
		wire[p] = buf
		return nil
	}
	wire[p], err = encodeBlock(o.codec, buf)
	if err != nil {
		return err
	}
	putRunBuf(buf)
	return nil
}

// kvWriterFunc adapts a function to runtime.KVWriter.
type kvWriterFunc func(k, v []byte) error

func (f kvWriterFunc) Write(k, v []byte) error { return f(k, v) }

// fetchSet is the shared consumer-side machinery of the shuffle inputs:
// it holds one slot per physical input, accepts DataMovement events,
// fetches their data on a pool of parallel fetcher goroutines
// (overlapping with producer completion and with each other — the
// latency-hiding overlap of §3.4), honours InputFailed retractions, and
// surfaces producer data loss as a runtime.InputReadError.
//
// Every wait is on a channel. Fetchers range over todo, which carries an
// index only while its slot is busy and a slot is busy from its queueing
// to the end of its fetch, so todo never holds more than PhysicalCount
// indexes and a send under mu never blocks. The reader waits on changed
// or the attempt's kill.
type fetchSet struct {
	ctx     *runtime.Context
	knobs   shuffleKnobs
	fetcher *shuffle.Fetcher // shared by all fetcher goroutines

	mu       sync.Mutex
	slots    []inputSlot   // indexed by physical input
	stored   int           // slots holding their runs; the read is complete at len(slots)
	err      error         // first failure: an InputReadError or a misrouted movement
	closed   bool          // todo is closed and later events are ignored
	todo     chan int      // slot indexes to fetch
	changed  chan struct{} // capacity 1: a store, drop or failure happened
	fetchers sync.WaitGroup

	// testHookFetched, when set, is called by a fetcher goroutine after a
	// fetch completes and before its result is stored — a deterministic
	// interleaving seam for retraction-race tests. Nil in production.
	testHookFetched func(event.DataMovement)
}

// inputSlot is one physical input: the latest announced movement, the
// runs fetched for it, and whether a fetcher owns the index.
type inputSlot struct {
	dm     event.DataMovement // valid while live
	live   bool               // dm is announced and not retracted
	runs   [][]byte           // dm's fetched runs, valid while stored
	stored bool
	busy   bool // queued on todo or being fetched
}

func newFetchSet(ctx *runtime.Context) *fetchSet {
	return &fetchSet{
		ctx:     ctx,
		fetcher: &shuffle.Fetcher{Service: ctx.Services.Shuffle, Token: ctx.Services.Token},
		knobs:   resolveShuffleKnobs(OrderedPartitionedConfig{}, ctx.Services),
		slots:   make([]inputSlot, ctx.PhysicalCount),
		todo:    make(chan int, ctx.PhysicalCount),
		changed: make(chan struct{}, 1),
	}
}

// handleEvent records a DataMovement for fetching or an InputFailed
// retraction. Attempt tracking is upgrade-only: a movement from an attempt
// older than the slot's is dropped, and a newer attempt's movement drops
// the older attempt's runs. A retraction only ever drops stored runs:
// nothing is merged before the reader asks, so no run is past recalling
// and the replacement is simply fetched. A movement for an index outside
// the physical inputs fails the read.
func (f *fetchSet) handleEvent(ev event.Event) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.closed {
		return nil
	}
	switch e := ev.(type) {
	case event.DataMovement:
		idx := e.TargetInputIndex
		if idx < 0 || idx >= len(f.slots) {
			err := fmt.Errorf("library: input %s: movement for physical input %d of %d", f.ctx.Name, idx, len(f.slots))
			f.failLocked(err)
			return err
		}
		s := &f.slots[idx]
		if s.live && e.SrcAttempt < s.dm.SrcAttempt {
			return nil // stale announcement of a superseded attempt
		}
		if s.live && e.SrcAttempt > s.dm.SrcAttempt {
			f.dropLocked(s)
		}
		s.dm, s.live = e, true
		f.queueLocked(idx)
	case event.InputFailed:
		idx := e.TargetInputIndex
		if idx >= 0 && idx < len(f.slots) && f.slots[idx].live && f.slots[idx].dm.SrcAttempt == e.SrcAttempt {
			f.dropLocked(&f.slots[idx])
			f.slots[idx].live = false
		}
	}
	return nil
}

// queueLocked hands a slot to the fetchers unless one owns it already (its
// fetch re-queues it on ending), it holds its runs, or nothing is announced.
func (f *fetchSet) queueLocked(idx int) {
	s := &f.slots[idx]
	if s.busy || s.stored || !s.live || f.closed {
		return
	}
	s.busy = true
	f.todo <- idx
}

// dropLocked discards a slot's stored runs.
func (f *fetchSet) dropLocked(s *inputSlot) {
	if s.stored {
		s.runs, s.stored = nil, false
		f.stored--
		f.signal()
	}
}

// failLocked records the read's first failure.
func (f *fetchSet) failLocked(err error) {
	if f.err == nil {
		f.err = err
	}
	f.signal()
}

// signal wakes the reader; a wakeup already pending covers this one.
func (f *fetchSet) signal() {
	select {
	case f.changed <- struct{}{}:
	default:
	}
}

// start launches the fetcher pool. Fetches overlap with remaining
// producer executions and with each other (the latency-hiding overlap of
// §3.4; a reducer with many remote producers pays max, not sum, of the
// concurrent transfer delays).
func (f *fetchSet) start() {
	n := min(f.knobs.fetchParallelism, len(f.slots))
	f.fetchers.Add(n)
	for i := 0; i < n; i++ {
		go f.fetchLoop()
	}
}

// fetchLoop is one fetcher goroutine. It runs until close closes todo, so
// that replacement movements after an InputFailed retraction are still
// fetched; after a failure or close it drains todo without fetching.
func (f *fetchSet) fetchLoop() {
	defer f.fetchers.Done()
	for idx := range f.todo {
		f.mu.Lock()
		s := &f.slots[idx]
		dm := s.dm
		if !s.live || f.err != nil || f.closed {
			// Retracted while queued (a replacement queues anew), or the
			// read is over.
			s.busy = false
			f.mu.Unlock()
			continue
		}
		f.mu.Unlock()
		runs, wireLen, err := f.fetchOne(dm)
		f.mu.Lock()
		f.storeLocked(idx, dm, runs, wireLen, err)
		f.mu.Unlock()
	}
}

// storeLocked ends a slot's fetch. A transfer whose attempt is no longer
// the slot's — retracted, or superseded by a re-executed producer while in
// the air — is dropped, success or error, and the slot's newer movement
// is fetched in its place; a current error fails the read.
func (f *fetchSet) storeLocked(idx int, dm event.DataMovement, runs [][]byte, wireLen int, err error) {
	s := &f.slots[idx]
	s.busy = false
	switch {
	case !s.live || s.dm.SrcAttempt != dm.SrcAttempt:
		f.queueLocked(idx)
	case err != nil:
		f.failLocked(&runtime.InputReadError{
			InputName:  f.ctx.Name,
			SrcVertex:  dm.SrcVertex,
			SrcTask:    dm.SrcTask,
			SrcAttempt: dm.SrcAttempt,
			Err:        err,
		})
	default:
		s.runs, s.stored = runs, true
		f.stored++
		// Byte counters accumulate here, where runs are stored, so a stale
		// or duplicate transfer never inflates them — they stay an exact
		// account of the runs the reader consumed (SHUFFLE_INCREMENTS
		// counts the stored fetches).
		if ctr := f.ctx.Services.Counters; ctr != nil {
			raw := 0
			for _, r := range runs {
				raw += len(r)
			}
			ctr.Add("SHUFFLE_BYTES_WIRE", int64(wireLen))
			ctr.Add("SHUFFLE_BYTES_RAW", int64(raw))
			ctr.Add("SHUFFLE_INCREMENTS", 1)
		}
		f.signal()
	}
}

// fetchOne decodes and fetches a single movement, maintaining the
// fetch-path metrics (in-flight gauge + peak, per-fetch latency, retry
// counts), decoding the wire block codec and splitting the block at
// DMInfo.RunSizes. It returns the decoded runs and the wire length; byte
// counters are charged by the caller only when the result is actually
// stored, so retracted and duplicate transfers don't count.
func (f *fetchSet) fetchOne(dm event.DataMovement) ([][]byte, int, error) {
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
	var runs [][]byte
	if err == nil {
		runs, err = splitRuns(data, info.RunSizes)
	}
	if ctr != nil {
		ctr.Add("SHUFFLE_FETCHES_INFLIGHT", -1)
		ctr.Add("SHUFFLE_FETCHES", 1)
		ctr.Add("SHUFFLE_FETCH_TIME_NS", time.Since(start).Nanoseconds())
		if retries > 0 {
			ctr.Add("SHUFFLE_FETCH_RETRIES", int64(retries))
		}
	}
	return runs, wireLen, err
}

// splitRuns cuts a fetched block into the runs sizes describe; no sizes
// mean one run. Sizes that do not tile the block exactly are a corrupt
// movement.
func splitRuns(data []byte, sizes []int64) ([][]byte, error) {
	if len(sizes) == 0 {
		return [][]byte{data}, nil
	}
	runs := make([][]byte, 0, len(sizes))
	rest := data
	for _, n := range sizes {
		if n < 0 || n > int64(len(rest)) {
			break
		}
		runs, rest = append(runs, rest[:n:n]), rest[n:]
	}
	if len(runs) < len(sizes) || len(rest) > 0 {
		return nil, fmt.Errorf("library: run sizes %v do not tile a %d-byte block", sizes, len(data))
	}
	return runs, nil
}

// storedRuns returns the fetched runs for an input index — a test accessor.
func (f *fetchSet) storedRuns(idx int) ([][]byte, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.slots[idx]
	return s.runs, s.stored
}

// wait blocks until every physical input is fetched, the read failed, or
// the attempt is killed or the set closed. It returns the fetched runs
// ordered by physical input index, each input's runs in order.
func (f *fetchSet) wait() ([][]byte, error) {
	for {
		f.mu.Lock()
		err, closed := f.err, f.closed
		done := f.stored == len(f.slots)
		var runs [][]byte
		for i := 0; done && i < len(f.slots); i++ {
			runs = append(runs, f.slots[i].runs...)
		}
		f.mu.Unlock()
		switch {
		case err != nil:
			return nil, err
		case done:
			return runs, nil
		case closed:
			return nil, fmt.Errorf("library: input %s: attempt killed while fetching", f.ctx.Name)
		}
		select {
		case <-f.changed:
		case <-f.ctx.Stop:
			return nil, fmt.Errorf("library: input %s: attempt killed while fetching", f.ctx.Name)
		}
	}
}

// close ends the fetcher pool: fetches in the air finish, queued ones are
// skipped.
func (f *fetchSet) close() error {
	f.mu.Lock()
	if !f.closed {
		f.closed = true
		close(f.todo)
		f.signal()
	}
	f.mu.Unlock()
	f.fetchers.Wait()
	return nil
}

// OrderedGroupedKVInput is the reduce-side shuffle transport: it fetches
// every expected physical input (one per producer task per owned
// partition; a spilled producer's input holds each of its sorted runs),
// k-way merges all the sorted runs once, lazily, as the reader advances,
// and exposes a runtime.GroupedKVReader of keys with grouped values. It
// is the only merge a record goes through. Every run is an in-memory
// buffer, so the merge width needs no bound and no run is merged before
// the last one arrives. Keys
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
