package mailbox

import (
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestFIFOOrder(t *testing.T) {
	m := New[int]()
	for i := 0; i < 100; i++ {
		m.Put(i)
	}
	for i := 0; i < 100; i++ {
		v, ok := m.Get()
		if !ok || v != i {
			t.Fatalf("Get = %d,%v; want %d,true", v, ok, i)
		}
	}
}

func TestGetBlocksUntilPut(t *testing.T) {
	m := New[string]()
	done := make(chan string)
	go func() {
		v, _ := m.Get()
		done <- v
	}()
	m.Put("hello")
	if got := <-done; got != "hello" {
		t.Fatalf("got %q", got)
	}
}

func TestCloseUnblocksAndDrains(t *testing.T) {
	m := New[int]()
	m.Put(1)
	m.Close()
	if v, ok := m.Get(); !ok || v != 1 {
		t.Fatalf("Get after close = %d,%v; want 1,true", v, ok)
	}
	if _, ok := m.Get(); ok {
		t.Fatal("Get on closed empty mailbox returned ok")
	}
	m.Put(2) // no-op
	if _, ok := m.TryGet(); ok {
		t.Fatal("Put after close enqueued")
	}
	m.Close() // idempotent
}

func TestTryGet(t *testing.T) {
	m := New[int]()
	if _, ok := m.TryGet(); ok {
		t.Fatal("TryGet on empty returned ok")
	}
	m.Put(7)
	if v, ok := m.TryGet(); !ok || v != 7 {
		t.Fatalf("TryGet = %d,%v", v, ok)
	}
}

// TestCloseWakesBlockedGet pins the teardown path: a Get parked on an
// empty mailbox must wake with ok=false the moment Close runs, not hang.
func TestCloseWakesBlockedGet(t *testing.T) {
	m := New[int]()
	const waiters = 4
	done := make(chan bool, waiters)
	var started sync.WaitGroup
	for i := 0; i < waiters; i++ {
		started.Add(1)
		go func() {
			started.Done()
			_, ok := m.Get()
			done <- ok
		}()
	}
	started.Wait()
	m.Close()
	for i := 0; i < waiters; i++ {
		if ok := <-done; ok {
			t.Fatal("Get woken by Close returned ok=true with no item")
		}
	}
}

// TestPutAfterCloseDuringTeardown models the AM teardown race: late
// producers (a task finishing after its DAG was torn down) keep Putting
// into a mailbox that was just closed — every Put must be a silent no-op,
// concurrently safe, and leave the drained mailbox empty.
func TestPutAfterCloseDuringTeardown(t *testing.T) {
	m := New[int]()
	var wg sync.WaitGroup
	for p := 0; p < 4; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				m.Put(p*200 + i)
			}
		}(p)
	}
	m.Close()
	wg.Wait()
	// Whatever raced in before Close drains in order; then ok=false forever.
	for {
		if _, ok := m.Get(); !ok {
			break
		}
	}
	m.Put(42)
	if v, ok := m.TryGet(); ok {
		t.Fatalf("Put after close enqueued %d", v)
	}
}

// TestPutAllDrainBatch pins the batch APIs: PutAll preserves order
// against interleaved Puts, and Drain empties the whole backlog into a
// reused buffer.
func TestPutAllDrainBatch(t *testing.T) {
	m := New[int]()
	m.Put(1)
	m.PutAll([]int{2, 3, 4})
	m.PutAll(nil) // no-op
	m.Put(5)

	buf, ok := m.Drain(nil)
	if !ok || len(buf) != 5 {
		t.Fatalf("Drain = %v,%v; want 5 items", buf, ok)
	}
	for i, v := range buf {
		if v != i+1 {
			t.Fatalf("batch[%d] = %d", i, v)
		}
	}
	if v, ok := m.TryGet(); ok {
		t.Fatalf("TryGet after Drain = %d", v)
	}
	// Buffer reuse: the same backing array comes back when it fits.
	m.PutAll([]int{6, 7})
	buf2, ok := m.Drain(buf)
	if !ok || len(buf2) != 2 || buf2[0] != 6 || buf2[1] != 7 {
		t.Fatalf("Drain reuse = %v,%v", buf2, ok)
	}
	if cap(buf2) != cap(buf) || &buf2[0] != &buf[0] {
		t.Fatal("Drain did not reuse the caller's buffer")
	}
	// Closed + empty: ok=false.
	m.Close()
	if _, ok := m.Drain(buf2); ok {
		t.Fatal("Drain on closed empty mailbox returned ok")
	}
}

// TestDrainAfterReady pins the select reader's contract: it parks on
// Ready and, woken, drains the full batch available at wake time.
func TestDrainAfterReady(t *testing.T) {
	m := New[int]()
	done := make(chan []int)
	go func() {
		<-m.Ready()
		batch, _ := m.Drain(nil)
		done <- batch
	}()
	m.PutAll([]int{10, 11, 12})
	got := <-done
	if len(got) != 3 || got[0] != 10 {
		t.Fatalf("Drain after Ready = %v", got)
	}
}

// TestReadyFiresOnPutAndClose: a token is waiting after a Put, and Close
// leaves Ready permanently readable.
func TestReadyFiresOnPutAndClose(t *testing.T) {
	m := New[int]()
	select {
	case <-m.Ready():
		t.Fatal("Ready fired on a new mailbox")
	default:
	}
	m.Put(1)
	select {
	case <-m.Ready():
	default:
		t.Fatal("Ready did not fire after Put")
	}
	m.Close()
	for i := 0; i < 2; i++ {
		select {
		case <-m.Ready():
		default:
			t.Fatal("Ready did not fire after Close")
		}
	}
}

// TestDrainEmptyOpenDoesNotBlock: Drain on an empty open mailbox returns
// the emptied buffer and ok=true at once.
func TestDrainEmptyOpenDoesNotBlock(t *testing.T) {
	m := New[int]()
	buf := make([]int, 3, 8)
	got, ok := m.Drain(buf)
	if !ok || len(got) != 0 || cap(got) != cap(buf) {
		t.Fatalf("Drain on empty open mailbox = %v (cap %d),%v", got, cap(got), ok)
	}
}

// TestPutAllWakesEveryBlockedGet: one PutAll leaves one token, and each
// Get that leaves items behind passes it on, so all four blocked readers
// wake with one item each.
func TestPutAllWakesEveryBlockedGet(t *testing.T) {
	m := New[int]()
	const readers = 4
	got := make(chan int, readers)
	for i := 0; i < readers; i++ {
		go func() {
			v, _ := m.Get()
			got <- v
		}()
	}
	waitParkedInGet(t, readers)
	m.PutAll([]int{1, 2, 3, 4})
	sum := 0
	for i := 0; i < readers; i++ {
		select {
		case v := <-got:
			sum += v
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d blocked readers woke", i, readers)
		}
	}
	if sum != 10 {
		t.Fatalf("readers got items summing to %d, want 10", sum)
	}
}

// TestPopReleasesSlotsAndCompacts is the alloc/retention regression for
// the old `items = items[1:]` pop, which pinned the backing array forever:
// every popped head slot stays reachable via the slice backing even after
// the consumer moved on. The new head-cursor pop must (a) zero popped
// slots immediately so their referents are collectable, and (b) compact so
// retained capacity tracks the live backlog, not the total ever enqueued.
func TestPopReleasesSlotsAndCompacts(t *testing.T) {
	m := New[*[1024]byte]()
	const total = 4096
	for i := 0; i < total; i++ {
		m.Put(&[1024]byte{})
		if _, ok := m.Get(); !ok {
			t.Fatal("Get failed")
		}
		// Steady-state backlog of zero: retained capacity must stay small.
		m.mu.Lock()
		if c := cap(m.items); c > 4*compactThreshold {
			m.mu.Unlock()
			t.Fatalf("retained capacity %d after %d put/get cycles; head-cursor compaction broken", c, i+1)
		}
		// Every dead slot must be zeroed (no pinned referents).
		for j := 0; j < m.head; j++ {
			if m.items[j] != nil {
				m.mu.Unlock()
				t.Fatalf("popped slot %d still pins its item", j)
			}
		}
		m.mu.Unlock()
	}
}

// TestRetentionWithStandingBacklog: a deep backlog drains without
// quadratic compaction churn and ends with bounded capacity.
func TestRetentionWithStandingBacklog(t *testing.T) {
	m := New[int]()
	const depth = 10000
	for i := 0; i < depth; i++ {
		m.Put(i)
	}
	for i := 0; i < depth; i++ {
		v, ok := m.Get()
		if !ok || v != i {
			t.Fatalf("Get = %d,%v; want %d", v, ok, i)
		}
	}
	m.mu.Lock()
	c, h, l := cap(m.items), m.head, len(m.items)
	m.mu.Unlock()
	if l-h != 0 {
		t.Fatalf("backlog %d after full drain", l-h)
	}
	if c > 2*depth {
		t.Fatalf("capacity grew far past the high-water mark: %d", c)
	}
}

func TestConcurrentProducersConsumers(t *testing.T) {
	m := New[int]()
	const producers, perProducer = 8, 500
	var wg sync.WaitGroup
	for p := 0; p < producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			for i := 0; i < perProducer; i++ {
				m.Put(p*perProducer + i)
			}
		}(p)
	}
	go func() {
		wg.Wait()
		m.Close()
	}()
	seen := make(map[int]bool)
	var mu sync.Mutex
	var cg sync.WaitGroup
	for c := 0; c < 4; c++ {
		cg.Add(1)
		go func() {
			defer cg.Done()
			for {
				v, ok := m.Get()
				if !ok {
					return
				}
				mu.Lock()
				if seen[v] {
					t.Errorf("duplicate item %d", v)
				}
				seen[v] = true
				mu.Unlock()
			}
		}()
	}
	cg.Wait()
	if len(seen) != producers*perProducer {
		t.Fatalf("consumed %d items, want %d", len(seen), producers*perProducer)
	}
}

// waitParkedInGet waits until n goroutines are parked on a channel
// receive inside Get, so a test's Put meets readers already asleep.
func waitParkedInGet(t *testing.T, n int) {
	t.Helper()
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(5 * time.Second); ; {
		parked := 0
		for _, g := range strings.Split(string(buf[:runtime.Stack(buf, true)]), "\n\n") {
			if strings.Contains(g, "[chan receive") && strings.Contains(g, ").Get(") {
				parked++
			}
		}
		if parked >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d of %d readers parked in Get", parked, n)
		}
		runtime.Gosched()
	}
}
