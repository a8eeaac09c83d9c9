package am

import (
	"sort"
	"sync"
	"time"

	"tez/internal/cluster"
	"tez/internal/metrics"
	"tez/internal/timeline"
)

// nodeHealth is the session's per-node failure tracker and blacklist — the
// AM-side node health policy of YARN AMs (§4.3). Genuine attempt failures
// (onAttemptDone — "genuine" is decided by the attempt lifecycle's A_DONE
// selector, classifyAttemptDone in lifecycle.go: container kills,
// input-error casualties and node-loss races are KILLED, never charged)
// and fetch-failure retractions (onInputReadError) are
// attributed to the node they ran on / the producer's node; once either
// counter reaches NodeMaxTaskFailures the node is blacklisted: the
// scheduler stops reusing idle containers there and excludes it from RM
// requests. Blacklisting decays after blacklistDecay (the node gets a
// clean slate), and at most maxBlacklistFraction of the cluster may be
// blacklisted at once — at the cap further blacklisting is refused, so a
// cluster-wide problem degrades to normal retry behaviour instead of
// excluding every node.
type nodeHealth struct {
	maxFailures int
	capCount    int
	now         timeline.Clock    // injectable (Config.Clock)
	tl          *timeline.Journal // nil-safe event sink

	mu          sync.Mutex
	nodes       map[string]*nodeRecord
	blacklisted int
}

type nodeRecord struct {
	taskFailures  int
	fetchFailures int
	blacklisted   bool
	blacklistedAt time.Time
	enters, exits int
}

const (
	// blacklistDecay un-blacklists a node after this long, wiping its
	// failure counters — effectively "for the rest of the run" at
	// simulation timescales.
	blacklistDecay = 10 * time.Second
	// maxBlacklistFraction caps how much of the cluster may be blacklisted
	// at once (minimum one node).
	maxBlacklistFraction = 0.33
)

// newNodeHealth sizes the blacklist cap from the cluster's node count:
// max(1, floor(maxBlacklistFraction × total)).
func newNodeHealth(cfg Config, totalNodes int) *nodeHealth {
	capCount := int(maxBlacklistFraction * float64(totalNodes))
	if capCount < 1 {
		capCount = 1
	}
	return &nodeHealth{
		maxFailures: cfg.NodeMaxTaskFailures,
		capCount:    capCount,
		now:         cfg.Clock,
		tl:          cfg.Timeline,
		nodes:       make(map[string]*nodeRecord),
	}
}

// taskFailed attributes one genuine attempt failure to node and reports
// whether this newly blacklisted it.
func (h *nodeHealth) taskFailed(node string) bool {
	if node == "" {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.decayLocked()
	r := h.recLocked(node)
	r.taskFailures++
	return h.maybeBlacklistLocked(node, r)
}

// fetchFailed attributes one fetch-failure retraction (a consumer reported
// the node's shuffle output unreadable) and reports new blacklisting.
func (h *nodeHealth) fetchFailed(node string) bool {
	if node == "" {
		return false
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	h.decayLocked()
	r := h.recLocked(node)
	r.fetchFailures++
	return h.maybeBlacklistLocked(node, r)
}

// isBlacklisted reports whether node is currently excluded.
func (h *nodeHealth) isBlacklisted(node string) bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.decayLocked()
	r := h.nodes[node]
	return r != nil && r.blacklisted
}

// excludedIDs returns the current blacklist for RM requests, sorted.
func (h *nodeHealth) excludedIDs() []cluster.NodeID {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.decayLocked()
	var out []cluster.NodeID
	for id, r := range h.nodes {
		if r.blacklisted {
			out = append(out, cluster.NodeID(id))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// report snapshots every node with recorded history, sorted by node id.
func (h *nodeHealth) report() metrics.NodeHealthReport {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.decayLocked()
	out := make(metrics.NodeHealthReport, 0, len(h.nodes))
	for id, r := range h.nodes {
		out = append(out, metrics.NodeHealth{
			Node:            id,
			TaskFailures:    r.taskFailures,
			FetchFailures:   r.fetchFailures,
			Blacklisted:     r.blacklisted,
			BlacklistEnters: r.enters,
			BlacklistExits:  r.exits,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Node < out[j].Node })
	return out
}

func (h *nodeHealth) recLocked(node string) *nodeRecord {
	r := h.nodes[node]
	if r == nil {
		r = &nodeRecord{}
		h.nodes[node] = r
	}
	return r
}

// maybeBlacklistLocked applies the threshold and the cluster-fraction cap.
func (h *nodeHealth) maybeBlacklistLocked(node string, r *nodeRecord) bool {
	if r.blacklisted {
		return false
	}
	if r.taskFailures < h.maxFailures && r.fetchFailures < h.maxFailures {
		return false
	}
	if h.blacklisted >= h.capCount {
		return false // cap hit: relax rather than exclude more of the cluster
	}
	r.blacklisted = true
	r.blacklistedAt = h.now()
	r.enters++
	h.blacklisted++
	h.tl.Record(timeline.Event{
		Type: timeline.NodeBlacklisted, Node: node,
		Val: int64(r.taskFailures + r.fetchFailures),
	})
	return true
}

// decayLocked un-blacklists nodes whose sentence has elapsed, wiping their
// counters so they re-earn trust from zero.
func (h *nodeHealth) decayLocked() {
	now := h.now()
	for node, r := range h.nodes {
		if r.blacklisted && now.Sub(r.blacklistedAt) >= blacklistDecay {
			r.blacklisted = false
			r.exits++
			r.taskFailures = 0
			r.fetchFailures = 0
			h.blacklisted--
			h.tl.Record(timeline.Event{Type: timeline.NodeUnblacklisted, Node: node})
		}
	}
}
