// Session-loop tests: the backlog gauge reads what queued behind a
// stalled loop, a session holds exactly one goroutine of its own however
// many DAGs it runs, a deadline kill spares the session's other DAGs, and
// a Submit racing Close never hangs.
package am

import (
	"errors"
	"fmt"
	gort "runtime"
	"strings"
	"testing"
	"time"

	"tez/internal/plugin"
	"tez/internal/runtime"
	"tez/internal/testutil"
)

// onLoop runs fn on s's loop and waits for it: the way a test reads or
// drives loop-owned state (the scheduler, the active runs).
func onLoop(s *Session, fn func()) {
	done := make(chan struct{})
	s.mb.Put(func() { fn(); close(done) })
	<-done
}

// stallVM holds the loop inside OnVertexStarted until released, then
// schedules every task.
type stallVM struct{ ImmediateStartVertexManager }

var stallEntered, stallRelease chan struct{}

func (m *stallVM) OnVertexStarted() {
	stallEntered <- struct{}{}
	<-stallRelease
	m.ImmediateStartVertexManager.OnVertexStarted()
}

// TestBacklogGaugeSeesStalledDispatcher: 64 messages for a run queued
// while the loop is stuck in a vertex manager must show in the run's
// AM_MAILBOX_BACKLOG_MAX once it drains them.
func TestBacklogGaugeSeesStalledDispatcher(t *testing.T) {
	RegisterVertexManager("amtest.stall", func() VertexManager { return &stallVM{} })
	stallEntered = make(chan struct{}, 1)
	stallRelease = make(chan struct{})

	plat := newTestPlatform(2)
	defer plat.Stop()
	sess := NewSession(plat, Config{Name: "backlog"})
	defer sess.Close()
	d := oneVertexDAG("stall", "amdl.sleep", 2)
	d.Vertex("work").Manager = plugin.Desc("amtest.stall", nil)
	h, err := sess.Submit(d)
	if err != nil {
		t.Fatal(err)
	}
	<-stallEntered
	const queued = 64
	for i := 0; i < queued; i++ {
		sess.mb.Put(msgParQuery{r: h.run, name: "work", reply: make(chan int, 1)})
	}
	close(stallRelease)

	res := h.Wait()
	if res.Status != DAGSucceeded {
		t.Fatalf("status %v (%v)", res.Status, res.Err)
	}
	if got := res.Counters.Get("AM_MAILBOX_BACKLOG_MAX"); got < queued {
		t.Fatalf("AM_MAILBOX_BACKLOG_MAX = %d, want >= %d", got, queued)
	}
}

// parkedProc signals that it runs, then parks until its attempt is killed.
type parkedProc struct{ stop <-chan struct{} }

var parkedRunning = make(chan struct{}, 1)

func (p *parkedProc) Initialize(ctx *runtime.Context) error { p.stop = ctx.Stop; return nil }
func (p *parkedProc) Run(map[string]runtime.Input, map[string]runtime.Output) error {
	parkedRunning <- struct{}{}
	<-p.stop
	return errors.New("amtest.parked: killed")
}
func (p *parkedProc) Close() error { return nil }

// amGoroutines counts the live goroutines created by functions of this
// package, by creator ("NewSession", "(*dagRun).onAssigned", ...).
func amGoroutines() (map[string]int, string) {
	buf := make([]byte, 1<<20)
	dump := string(buf[:gort.Stack(buf, true)])
	const prefix = "\ncreated by tez/internal/am."
	by := make(map[string]int)
	for _, g := range strings.Split(dump, "\n\n") {
		i := strings.Index(g, prefix)
		if i < 0 {
			continue
		}
		creator := g[i+len(prefix):]
		if j := strings.IndexAny(creator, " \n"); j >= 0 {
			creator = creator[:j]
		}
		by[creator]++
	}
	return by, dump
}

// TestOneGoroutinePerSession: a session running three DAGs at once, one
// of them with a deadline, holds one goroutine of its own — the loop,
// whose select owns the run ticker and the idle reaper — and none per
// run. The only other goroutines the package created are the three
// running attempts'.
func TestOneGoroutinePerSession(t *testing.T) {
	runtime.RegisterProcessor("amtest.parked", func() runtime.Processor { return &parkedProc{} })
	plat := newTestPlatform(4)
	defer plat.Stop()
	sess := NewSession(plat, Config{Name: "goroutines"})
	defer sess.Close()
	var runs []*DAGRun
	for i := 0; i < 3; i++ {
		var opts []SubmitOption
		if i == 0 {
			opts = append(opts, WithDeadline(time.Hour))
		}
		h, err := sess.Submit(oneVertexDAG(fmt.Sprintf("parked%d", i), "amtest.parked", 1), opts...)
		if err != nil {
			t.Fatal(err)
		}
		runs = append(runs, h)
	}
	for range runs {
		<-parkedRunning
	}

	want := map[string]int{"NewSession": 1, "(*dagRun).onAssigned": 3}
	var by map[string]int
	var dump string
	for deadline := time.Now().Add(5 * time.Second); ; {
		by, dump = amGoroutines()
		if fmt.Sprint(by) == fmt.Sprint(want) || time.Now().After(deadline) {
			break
		}
		gort.Gosched() // an earlier test's session, or a launch, may still be exiting
	}
	if fmt.Sprint(by) != fmt.Sprint(want) {
		t.Fatalf("goroutines by creator: %v, want %v\n%s", by, want, dump)
	}
	for _, h := range runs {
		h.Kill("test over")
		if res := h.Wait(); res.Status != DAGKilled {
			t.Fatalf("status %v (%v), want DAGKilled", res.Status, res.Err)
		}
	}
}

// TestDeadlineKillSparesSiblingDAG: of two DAGs running at once in one
// session, the one past its deadline is killed, and the other succeeds
// with the same output as when it runs alone.
func TestDeadlineKillSparesSiblingDAG(t *testing.T) {
	plat := newTestPlatform(4)
	defer plat.Stop()
	writeLines(t, plat, "/in/sib", []string{"a b a", "c b a", "d a c b", "e"})

	solo := NewSession(plat, Config{Name: "solo"})
	if res, err := solo.Run(wordCountDAG("wc", "/in/sib", "/out/solo", 2)); err != nil || res.Status != DAGSucceeded {
		t.Fatalf("solo run: %v %v", res.Status, err)
	}
	solo.Close()
	want := testutil.PartsDigest(t, plat.FS, "/out/solo")

	sess := NewSession(plat, Config{Name: "pair"})
	defer sess.Close()
	stuck, err := sess.Submit(oneVertexDAG("stuck", "amdl.block", 2), WithDeadline(20*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	wc, err := sess.Submit(wordCountDAG("wc", "/in/sib", "/out/pair", 2))
	if err != nil {
		t.Fatal(err)
	}
	if res := stuck.Wait(); res.Status != DAGKilled || !errors.Is(res.Err, ErrDeadlineExceeded) {
		t.Fatalf("stuck DAG: %v (%v), want DAGKilled by its deadline", res.Status, res.Err)
	}
	if res := wc.Wait(); res.Status != DAGSucceeded {
		t.Fatalf("sibling DAG: %v (%v), want DAGSucceeded", res.Status, res.Err)
	}
	if got := testutil.PartsDigest(t, plat.FS, "/out/pair"); got != want {
		t.Fatalf("sibling output digest %s, solo run's %s", got, want)
	}
}

// TestSubmitRacingCloseNeverHangs: a Submit racing Close either fails or
// returns a handle whose Wait ends DAGKilled. Run under -race in CI.
func TestSubmitRacingCloseNeverHangs(t *testing.T) {
	plat := newTestPlatform(2)
	defer plat.Stop()
	for i := 0; i < 4; i++ {
		sess := NewSession(plat, Config{Name: fmt.Sprintf("submit-close-%d", i)})
		closed := make(chan struct{})
		go func() {
			sess.Close()
			close(closed)
		}()
		h, err := sess.Submit(oneVertexDAG("stuck", "amdl.block", 1))
		if err == nil {
			if res := h.Wait(); res.Status != DAGKilled {
				t.Fatalf("iter %d: status %v (%v), want DAGKilled", i, res.Status, res.Err)
			}
		}
		<-closed
	}
}
