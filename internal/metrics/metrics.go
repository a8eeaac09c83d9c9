// Package metrics collects the counters, node-health reports and cluster
// utilisation timelines that the benchmark harness uses to regenerate the
// paper's figures (notably the Figure 12 per-application container
// timelines) and that the AM publishes for monitoring, mirroring the
// "publishing metrics and statistics" shared concern of §2.
package metrics

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"
)

// Counters is a concurrency-safe named counter set.
type Counters struct {
	mu sync.Mutex
	m  map[string]int64
}

// NewCounters returns an empty counter set.
func NewCounters() *Counters { return &Counters{m: make(map[string]int64)} }

// Add increments name by delta and returns the new value (so callers can
// maintain gauge-style counters and observe the level they just set).
func (c *Counters) Add(name string, delta int64) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.m[name] += delta
	return c.m[name]
}

// SetMax raises name to v if v is larger — a high-water mark, used for
// gauge peaks such as the number of concurrently in-flight shuffle
// fetches.
func (c *Counters) SetMax(name string, v int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if v > c.m[name] {
		c.m[name] = v
	}
}

// Get returns the value of name (0 if unset).
func (c *Counters) Get(name string) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.m[name]
}

// Snapshot returns a copy of all counters.
func (c *Counters) Snapshot() map[string]int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[string]int64, len(c.m))
	for k, v := range c.m {
		out[k] = v
	}
	return out
}

// String renders counters sorted by name.
func (c *Counters) String() string {
	snap := c.Snapshot()
	keys := make([]string, 0, len(snap))
	for k := range snap {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s=%d ", k, snap[k])
	}
	return strings.TrimSpace(b.String())
}

// Sample is one point of a utilisation timeline: the per-series values at
// an instant (e.g. containers held per application).
type Sample struct {
	At     time.Duration // since sampler start
	Values map[string]int
}

// TimelineSampler polls a snapshot function periodically, building the
// per-application resource timelines of Figure 12.
type TimelineSampler struct {
	mu      sync.Mutex
	samples []Sample
	stop    chan struct{}
	done    chan struct{}
}

// StartSampler polls snap every interval until Stop.
func StartSampler(interval time.Duration, snap func() map[string]int) *TimelineSampler {
	s := &TimelineSampler{stop: make(chan struct{}), done: make(chan struct{})}
	start := time.Now()
	go func() {
		defer close(s.done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-s.stop:
				return
			case <-t.C:
				v := snap()
				s.mu.Lock()
				s.samples = append(s.samples, Sample{At: time.Since(start), Values: v})
				s.mu.Unlock()
			}
		}
	}()
	return s
}

// Stop halts sampling and returns the collected samples.
func (s *TimelineSampler) Stop() []Sample {
	close(s.stop)
	<-s.done
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.samples
}

// SeriesNames returns the sorted union of series names across samples.
func SeriesNames(samples []Sample) []string {
	set := map[string]bool{}
	for _, s := range samples {
		for k := range s.Values {
			set[k] = true
		}
	}
	names := make([]string, 0, len(set))
	for k := range set {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}

// AllocWait summarises scheduler time-to-allocate for one locality level:
// how many attempts were placed at that level and their mean wait from
// request submission to container assignment.
type AllocWait struct {
	Locality string
	Count    int64
	Mean     time.Duration
}

// AllocWaitReport extracts per-locality allocation-wait statistics from a
// counter set (the AM maintains SCHED_ALLOC_WAIT_NS_<LEVEL> /
// SCHED_ALLOC_WAIT_COUNT_<LEVEL> pairs), sorted by locality level name.
func AllocWaitReport(c *Counters) []AllocWait {
	snap := c.Snapshot()
	var out []AllocWait
	for k, count := range snap {
		loc, ok := strings.CutPrefix(k, "SCHED_ALLOC_WAIT_COUNT_")
		if !ok || count <= 0 {
			continue
		}
		ns := snap["SCHED_ALLOC_WAIT_NS_"+loc]
		out = append(out, AllocWait{
			Locality: loc,
			Count:    count,
			Mean:     time.Duration(ns / count),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Locality < out[j].Locality })
	return out
}

// NodeHealth is one node's failure-tracking snapshot from the AM's
// blacklisting subsystem: how many genuine attempt failures and fetch-
// failure retractions were attributed to it, and its blacklist history.
type NodeHealth struct {
	Node            string
	TaskFailures    int
	FetchFailures   int
	Blacklisted     bool
	BlacklistEnters int
	BlacklistExits  int
}

// NodeHealthReport is a per-node health snapshot, sorted by node id.
type NodeHealthReport []NodeHealth

// BlacklistedCount returns the number of currently-blacklisted nodes.
func (r NodeHealthReport) BlacklistedCount() int {
	n := 0
	for _, h := range r {
		if h.Blacklisted {
			n++
		}
	}
	return n
}

// String renders one line per node with any recorded history.
func (r NodeHealthReport) String() string {
	var b strings.Builder
	for _, h := range r {
		mark := ""
		if h.Blacklisted {
			mark = " BLACKLISTED"
		}
		fmt.Fprintf(&b, "%s: taskFailures=%d fetchFailures=%d enters=%d exits=%d%s\n",
			h.Node, h.TaskFailures, h.FetchFailures, h.BlacklistEnters, h.BlacklistExits, mark)
	}
	return b.String()
}
