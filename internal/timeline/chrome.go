package timeline

import (
	"encoding/json"
	"fmt"
	"sort"
	"time"
)

// Chrome trace-event export (the catapult JSON format Perfetto loads):
// a {"traceEvents": [...]} object whose events carry ph/ts/pid/tid.
// Attempt executions, scheduler waits and shuffle fetches become complete
// ("X") spans; lifecycle transitions become instants ("i"); process and
// thread names are declared with metadata ("M") events. Each DAG run maps
// to a pid; containers, the AM control plane and shuffle servers map to
// tids within it, which is what gives Perfetto its swimlanes.

type chromeEvent struct {
	Name string  `json:"name"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"` // microseconds
	// Dur is never omitted: complete ("X") spans require the key even
	// when the modelled duration rounds to zero.
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	S    string         `json:"s,omitempty"` // instant scope
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// laneTable allocates stable pid/tid pairs and their metadata events.
type laneTable struct {
	pids  map[string]int
	tids  map[string]int
	metas []chromeEvent
}

func newLaneTable() *laneTable {
	return &laneTable{pids: map[string]int{}, tids: map[string]int{}}
}

func (t *laneTable) pid(name string) int {
	if name == "" {
		name = "session"
	}
	if id, ok := t.pids[name]; ok {
		return id
	}
	id := len(t.pids) + 1
	t.pids[name] = id
	t.metas = append(t.metas, chromeEvent{
		Name: "process_name", Ph: "M", Pid: id, Tid: 0,
		Args: map[string]any{"name": name},
	})
	return id
}

func (t *laneTable) tid(pid int, lane string) int {
	key := fmt.Sprintf("%d/%s", pid, lane)
	if id, ok := t.tids[key]; ok {
		return id
	}
	id := len(t.tids) + 1
	t.tids[key] = id
	t.metas = append(t.metas, chromeEvent{
		Name: "thread_name", Ph: "M", Pid: pid, Tid: id,
		Args: map[string]any{"name": lane},
	})
	return id
}

// ChromeTrace renders the events as Chrome trace-event JSON.
func ChromeTrace(events []Event) ([]byte, error) {
	// Timestamps are offsets from the earliest span start, in µs.
	var base time.Time
	for _, e := range events {
		if s := e.Start(); base.IsZero() || s.Before(base) {
			base = s
		}
	}
	us := func(t time.Time) float64 { return float64(t.Sub(base)) / float64(time.Microsecond) }

	lanes := newLaneTable()
	var out []chromeEvent
	for _, e := range events {
		pid := lanes.pid(e.DAG)
		switch e.Type {
		case AttemptFinished:
			lane := fmt.Sprintf("container-%d (%s)", e.Container, e.Node)
			out = append(out, chromeEvent{
				Name: fmt.Sprintf("%s/t%03d_a%d", e.Vertex, e.Task, e.Attempt),
				Ph:   "X", Ts: us(e.Start()), Dur: float64(e.Dur) / float64(time.Microsecond),
				Pid: pid, Tid: lanes.tid(pid, lane),
				Args: map[string]any{"node": e.Node, "outcome": e.Info},
			})
		case AttemptStarted:
			// The closed request→allocate→launch span (Val = wait ns).
			out = append(out, chromeEvent{
				Name: fmt.Sprintf("alloc %s/t%03d_a%d", e.Vertex, e.Task, e.Attempt),
				Ph:   "X", Ts: us(e.Wall.Add(-time.Duration(e.Val))), Dur: float64(e.Val) / float64(time.Microsecond),
				Pid: pid, Tid: lanes.tid(pid, "scheduler"),
				Args: map[string]any{"locality": e.Info, "node": e.Node},
			})
		case ShuffleFetch:
			out = append(out, chromeEvent{
				Name: fmt.Sprintf("fetch %s/t%03d_a%d", e.Vertex, e.Task, e.Attempt),
				Ph:   "X", Ts: us(e.Start()), Dur: float64(e.Dur) / float64(time.Microsecond),
				Pid: pid, Tid: lanes.tid(pid, "shuffle @"+e.Node),
				Args: map[string]any{"bytes": e.Val, "reader": e.Info},
			})
		case ShuffleSpill:
			out = append(out, chromeEvent{
				Name: fmt.Sprintf("spill %s/t%03d_a%d", e.Vertex, e.Task, e.Attempt),
				Ph:   "X", Ts: us(e.Start()), Dur: float64(e.Dur) / float64(time.Microsecond),
				Pid: pid, Tid: lanes.tid(pid, "shuffle @"+e.Node),
				Args: map[string]any{"records": e.Val, "edge": e.Info},
			})
		default:
			name := string(e.Type)
			if e.Vertex != "" {
				name += " " + e.Vertex
			}
			if e.Node != "" {
				name += " @" + e.Node
			}
			out = append(out, chromeEvent{
				Name: name, Ph: "i", Ts: us(e.Wall),
				Pid: pid, Tid: lanes.tid(pid, "am"), S: "t",
				Args: map[string]any{"seq": e.Seq, "info": e.Info},
			})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Ts < out[j].Ts })
	return json.MarshalIndent(chromeTrace{
		TraceEvents:     append(lanes.metas, out...),
		DisplayTimeUnit: "ms",
	}, "", " ")
}
