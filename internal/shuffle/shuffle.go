// Package shuffle implements the stand-in for the YARN Shuffle Service:
// per-node storage of partitioned task outputs plus the fetch path the
// built-in Tez inputs/outputs use to move intermediate data (§4.1).
//
// Like the real service it lives outside the orchestrator — Tez is not on
// the data plane; producers register partitioned output under their node,
// consumers fetch partitions by output id. The cost model charges per-byte
// transfer delays by topology distance (same node / same rack / cross
// rack), transient network errors can be injected and are retried with
// backoff by Fetcher, and node failure makes data unavailable, which is
// what drives the InputReadError → producer re-execution fault-tolerance
// path (§4.3).
package shuffle

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"time"

	"tez/internal/chaos"
	"tez/internal/security"
	"tez/internal/timeline"
)

// Errors reported by the service.
var (
	// ErrDataLost is fatal for the fetch: the output no longer exists
	// (never produced here, deleted, or its node died). The consumer must
	// report an input read error so the producer is re-executed.
	ErrDataLost = errors.New("shuffle: output data lost")
	// ErrTransient is a retryable network-style failure.
	ErrTransient = errors.New("shuffle: transient fetch error")
)

// Config is the transfer cost and fault-injection model.
type Config struct {
	// FetchBaseLatency is charged once per fetch.
	FetchBaseLatency time.Duration
	// DelayPerByteLocal/Rack/Remote charge per byte by topology distance.
	DelayPerByteLocal  time.Duration
	DelayPerByteRack   time.Duration
	DelayPerByteRemote time.Duration
	// TransientErrorRate in [0,1) injects retryable fetch failures.
	TransientErrorRate float64
	// Seed for the error-injection RNG. Zero means 1.
	Seed int64
	// Chaos, when set, injects transient/permanent fetch faults and slow-
	// node transfer multipliers (nil means no injection). Unlike
	// TransientErrorRate's shared RNG, chaos decisions are deterministic
	// per fetch site.
	Chaos *chaos.Plane
	// Timeline, when set, receives a ShuffleFetch span per successful
	// fetch and a ShuffleFetchError per failed one (nil records nothing).
	Timeline *timeline.Journal
}

// OutputID names one task attempt's registered output. Name distinguishes
// the several logical outputs a task may have (one per out-edge).
type OutputID struct {
	DAG     string
	Vertex  string
	Name    string
	Task    int
	Attempt int
}

func (id OutputID) String() string {
	return fmt.Sprintf("%s/%s/%s/t%03d_a%d", id.DAG, id.Vertex, id.Name, id.Task, id.Attempt)
}

type output struct {
	node       string
	partitions [][]byte
}

// Service is the cluster-wide shuffle registry.
type Service struct {
	cfg Config

	auth *security.Authority

	mu      sync.Mutex
	rng     *rand.Rand
	outputs map[OutputID]*output
	racks   map[string]string
	live    map[string]bool
	sleep   func(time.Duration)

	bytesFetched int64
	localFetches int64
	rackFetches  int64
	otherFetches int64
}

// New creates an empty shuffle service.
func New(cfg Config) *Service {
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return &Service{
		cfg:     cfg,
		rng:     rand.New(rand.NewSource(cfg.Seed)),
		outputs: make(map[OutputID]*output),
		racks:   make(map[string]string),
		live:    make(map[string]bool),
		sleep:   time.Sleep,
	}
}

// SetAuthority turns on token-based access control (§4.3): every
// registration and fetch must then present the live token of the DAG the
// output belongs to. In a secure cluster the shuffle service authenticates
// access to intermediate data; here the authority plays that role.
func (s *Service) SetAuthority(a *security.Authority) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.auth = a
}

// authorize verifies tok against the DAG scope when security is on.
func (s *Service) authorize(dag string, tok security.Token) error {
	s.mu.Lock()
	auth := s.auth
	s.mu.Unlock()
	if auth == nil {
		return nil
	}
	return auth.Verify(dag, tok)
}

// AddNode registers (or revives) a node's shuffle server.
func (s *Service) AddNode(node, rack string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.racks[node] = rack
	s.live[node] = true
}

// FailNode drops the node's shuffle server and all outputs stored there.
func (s *Service) FailNode(node string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.live[node] = false
	for id, o := range s.outputs {
		if o.node == node {
			delete(s.outputs, id)
		}
	}
}

// Register stores the partitioned output of a task attempt under node.
// Registering on a dead node fails (the zombie-task case). With an
// authority configured, the caller must present the DAG's live token.
func (s *Service) Register(node string, id OutputID, partitions [][]byte, tok ...security.Token) error {
	var t security.Token
	if len(tok) > 0 {
		t = tok[0]
	}
	if err := s.authorize(id.DAG, t); err != nil {
		return fmt.Errorf("shuffle: register %s: %w", id, err)
	}
	// The copy is the expensive part and touches nothing shared, so it is
	// made before the service-wide lock is taken: a producer registering
	// megabytes must not stall every other fetch and registration.
	cp := make([][]byte, len(partitions))
	for i, p := range partitions {
		cp[i] = append([]byte(nil), p...)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.live[node] {
		return fmt.Errorf("shuffle: register on dead node %s: %w", node, ErrDataLost)
	}
	s.outputs[id] = &output{node: node, partitions: cp}
	return nil
}

// Unregister removes one output (e.g. a failed attempt's).
func (s *Service) Unregister(id OutputID) {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.outputs, id)
}

// DeleteDAG removes all outputs of a DAG (teardown) and returns the count.
func (s *Service) DeleteDAG(dag string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := 0
	for id := range s.outputs {
		if id.DAG == dag {
			delete(s.outputs, id)
			n++
		}
	}
	return n
}

// Node returns the node an output lives on.
func (s *Service) Node(id OutputID) (string, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.outputs[id]
	if !ok {
		return "", false
	}
	return o.node, true
}

// PartitionSizes reports the byte size of each partition of an output.
func (s *Service) PartitionSizes(id OutputID) ([]int64, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.outputs[id]
	if !ok {
		return nil, fmt.Errorf("shuffle: %s: %w", id, ErrDataLost)
	}
	out := make([]int64, len(o.partitions))
	for i, p := range o.partitions {
		out[i] = int64(len(p))
	}
	return out, nil
}

// Fetch returns partition p of output id, charging the transfer cost to
// readerNode's distance. It may fail with ErrTransient (injected) or
// ErrDataLost (missing output or dead node).
func (s *Service) Fetch(id OutputID, partition int, readerNode string, tok ...security.Token) ([]byte, error) {
	data, delay, err := s.FetchNoWait(id, partition, readerNode, tok...)
	if err != nil {
		return nil, err
	}
	if delay > 0 {
		s.sleep(delay)
	}
	return data, nil
}

// recordFetchErr journals one failed fetch (nil-safe).
func (s *Service) recordFetchErr(id OutputID, partition int, readerNode, node, class string) {
	s.cfg.Timeline.Record(timeline.Event{
		Type: timeline.ShuffleFetchError, DAG: id.DAG,
		Vertex: id.Vertex, Task: id.Task, Attempt: id.Attempt, Node: node,
		Info: fmt.Sprintf("%s %s p%d -> %s", class, id.Name, partition, readerNode),
	})
}

// FetchNoWait is Fetch with the transfer cost returned instead of slept —
// consumers doing many small fetches accumulate the owed delay and sleep
// in coarse chunks (sub-millisecond sleeps round up to the OS timer
// granularity, which would inflate the cost model by 10–30×).
func (s *Service) FetchNoWait(id OutputID, partition int, readerNode string, tok ...security.Token) ([]byte, time.Duration, error) {
	var t security.Token
	if len(tok) > 0 {
		t = tok[0]
	}
	if err := s.authorize(id.DAG, t); err != nil {
		return nil, 0, fmt.Errorf("shuffle: fetch %s: %w", id, err)
	}
	s.mu.Lock()
	o, ok := s.outputs[id]
	if !ok {
		s.mu.Unlock()
		s.recordFetchErr(id, partition, readerNode, "", "DATA_LOST")
		return nil, 0, fmt.Errorf("shuffle: %s p%d: %w", id, partition, ErrDataLost)
	}
	if !s.live[o.node] {
		node := o.node
		s.mu.Unlock()
		s.recordFetchErr(id, partition, readerNode, node, "NODE_DOWN")
		return nil, 0, fmt.Errorf("shuffle: %s node %s down: %w", id, node, ErrDataLost)
	}
	if partition < 0 || partition >= len(o.partitions) {
		s.mu.Unlock()
		return nil, 0, fmt.Errorf("shuffle: %s has no partition %d", id, partition)
	}
	if s.cfg.TransientErrorRate > 0 && s.rng.Float64() < s.cfg.TransientErrorRate {
		node := o.node
		s.mu.Unlock()
		s.recordFetchErr(id, partition, readerNode, node, "TRANSIENT")
		return nil, 0, fmt.Errorf("shuffle: %s p%d: %w", id, partition, ErrTransient)
	}
	if s.cfg.Chaos != nil {
		site := fmt.Sprintf("%s/p%d/%s", id, partition, readerNode)
		switch s.cfg.Chaos.FetchFault(site) {
		case chaos.FaultTransient:
			node := o.node
			s.mu.Unlock()
			s.recordFetchErr(id, partition, readerNode, node, "TRANSIENT_INJECTED")
			return nil, 0, fmt.Errorf("shuffle: %s p%d: injected: %w", id, partition, ErrTransient)
		case chaos.FaultDataLost:
			node := o.node
			s.mu.Unlock()
			s.recordFetchErr(id, partition, readerNode, node, "DATA_LOST_INJECTED")
			return nil, 0, fmt.Errorf("shuffle: %s p%d: injected: %w", id, partition, ErrDataLost)
		}
	}
	data := o.partitions[partition]
	var perByte time.Duration
	switch {
	case o.node == readerNode:
		perByte = s.cfg.DelayPerByteLocal
		s.localFetches++
	case s.racks[o.node] != "" && s.racks[o.node] == s.racks[readerNode]:
		perByte = s.cfg.DelayPerByteRack
		s.rackFetches++
	default:
		perByte = s.cfg.DelayPerByteRemote
		s.otherFetches++
	}
	s.bytesFetched += int64(len(data))
	delay := s.cfg.FetchBaseLatency + time.Duration(len(data))*perByte
	if f := s.cfg.Chaos.FetchDelayFactor(o.node); f > 1 {
		delay = time.Duration(float64(delay) * f)
	}
	node := o.node
	s.mu.Unlock()
	s.cfg.Timeline.Record(timeline.Event{
		Type: timeline.ShuffleFetch, DAG: id.DAG,
		Vertex: id.Vertex, Task: id.Task, Attempt: id.Attempt, Node: node,
		Info: fmt.Sprintf("%s p%d -> %s", id.Name, partition, readerNode),
		Dur:  delay, Val: int64(len(data)),
	})
	return data, delay, nil
}

// Stats is a snapshot of fetch-path counters.
type Stats struct {
	BytesFetched int64
	LocalFetches int64
	RackFetches  int64
	OtherFetches int64
	Outputs      int
}

// Stats returns current counters.
func (s *Service) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		BytesFetched: s.bytesFetched,
		LocalFetches: s.localFetches,
		RackFetches:  s.rackFetches,
		OtherFetches: s.otherFetches,
		Outputs:      len(s.outputs),
	}
}

// Fetcher wraps Fetch with bounded retry and exponential backoff on
// transient errors — the "temporary network errors are retried with
// back-off before reporting an error event" behaviour of §4.3. A single
// Fetcher is safe for concurrent use by multiple goroutines (the parallel
// fetcher pool of a shuffle consumer shares one), and owed transfer delay
// accumulated by any goroutine is slept by whichever goroutine pushes it
// over the 1 ms threshold — concurrently with other fetchers' sleeps, so
// parallel transfers overlap like real parallel connections do.
type Fetcher struct {
	Service *Service
	// MaxRetries bounds retries of transient errors. Zero means "unset"
	// and defaults to 3 retries; a negative value means no retries at
	// all (the fetch fails on the first transient error); a positive
	// value retries exactly that many times (total attempts = retries+1).
	MaxRetries int
	Backoff    time.Duration // initial backoff, doubled per retry; default 1ms
	// MaxBackoff caps the exponential growth of the backoff ceiling;
	// default 250ms. The actual sleep before retry n is drawn uniformly
	// from [0, min(MaxBackoff, Backoff·2ⁿ)) — "full jitter", which
	// decorrelates the retry storms of many consumers hammering the same
	// recovering server.
	MaxBackoff time.Duration
	// Rand supplies the jitter draw in [0,1). Defaults to a private
	// seeded source; inject for deterministic tests. Called under the
	// Fetcher's lock, so a plain rand.Float64 closure is safe.
	Rand func() float64

	// Token authenticates fetches when the service has an authority.
	Token security.Token

	mu      sync.Mutex
	retries int64
	jrng    *rand.Rand
	// owed accumulates transfer delay until it is worth an OS sleep.
	owed time.Duration
}

// RetryCount returns the transient errors absorbed so far (observable in
// tests and metrics; safe to call concurrently).
func (f *Fetcher) RetryCount() int64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.retries
}

// retryBudget resolves the MaxRetries semantics: <0 none, 0 default, >0 n.
func (f *Fetcher) retryBudget() int {
	switch {
	case f.MaxRetries < 0:
		return 0
	case f.MaxRetries == 0:
		return 3
	default:
		return f.MaxRetries
	}
}

// Fetch retrieves one partition, retrying transient failures.
func (f *Fetcher) Fetch(id OutputID, partition int, readerNode string) ([]byte, error) {
	data, _, err := f.FetchCounted(id, partition, readerNode)
	return data, err
}

// FetchCounted is Fetch plus the number of transient retries this call
// absorbed (per-call, unlike the shared RetryCount total — useful when
// several goroutines share the Fetcher and want per-fetch metrics).
func (f *Fetcher) FetchCounted(id OutputID, partition int, readerNode string) ([]byte, int, error) {
	budget := f.retryBudget()
	ceiling := f.Backoff
	if ceiling <= 0 {
		ceiling = time.Millisecond
	}
	maxBackoff := f.MaxBackoff
	if maxBackoff <= 0 {
		maxBackoff = 250 * time.Millisecond
	}
	retried := 0
	var lastErr error
	for attempt := 0; attempt <= budget; attempt++ {
		data, delay, err := f.Service.FetchNoWait(id, partition, readerNode, f.Token)
		if err == nil {
			f.sleepOwed(delay)
			return data, retried, nil
		}
		lastErr = err
		if !errors.Is(err, ErrTransient) {
			return nil, retried, err
		}
		if attempt == budget {
			break
		}
		retried++
		f.mu.Lock()
		f.retries++
		u := f.jitterLocked()
		f.mu.Unlock()
		if ceiling > maxBackoff {
			ceiling = maxBackoff
		}
		if sleep := time.Duration(u * float64(ceiling)); sleep > 0 {
			time.Sleep(sleep)
		}
		if ceiling < maxBackoff {
			ceiling *= 2
		}
	}
	return nil, retried, fmt.Errorf("shuffle: retries exhausted: %w", lastErr)
}

// jitterLocked draws the full-jitter fraction in [0,1). Caller holds f.mu.
func (f *Fetcher) jitterLocked() float64 {
	if f.Rand != nil {
		return f.Rand()
	}
	if f.jrng == nil {
		f.jrng = rand.New(rand.NewSource(1))
	}
	return f.jrng.Float64()
}

// sleepOwed adds delay to the shared owed accumulator and, once it is
// worth an OS timer, claims the whole balance and sleeps it outside the
// lock so concurrent fetchers' transfer costs overlap in wall time.
func (f *Fetcher) sleepOwed(delay time.Duration) {
	f.mu.Lock()
	f.owed += delay
	var due time.Duration
	if f.owed >= time.Millisecond {
		due, f.owed = f.owed, 0
	}
	f.mu.Unlock()
	if due > 0 {
		time.Sleep(due)
	}
}
