package shuffle

import (
	"bytes"
	"errors"
	"fmt"
	"sync"
	"testing"
	"testing/quick"
)

func newService(nodes int) *Service {
	s := New(Config{})
	for i := 0; i < nodes; i++ {
		s.AddNode(fmt.Sprintf("n%d", i), fmt.Sprintf("r%d", i%2))
	}
	return s
}

func oid(task, attempt int) OutputID {
	return OutputID{DAG: "dag1", Vertex: "v1", Task: task, Attempt: attempt}
}

func TestRegisterFetchRoundTrip(t *testing.T) {
	s := newService(3)
	parts := [][]byte{[]byte("p0"), []byte("p1-data"), nil}
	if err := s.Register("n0", oid(0, 0), parts); err != nil {
		t.Fatal(err)
	}
	for i, want := range parts {
		got, err := s.Fetch(oid(0, 0), i, "n1")
		if err != nil {
			t.Fatalf("fetch p%d: %v", i, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("p%d = %q want %q", i, got, want)
		}
	}
	sizes, err := s.PartitionSizes(oid(0, 0))
	if err != nil {
		t.Fatal(err)
	}
	if sizes[0] != 2 || sizes[1] != 7 || sizes[2] != 0 {
		t.Fatalf("sizes = %v", sizes)
	}
}

func TestFetchMissingIsDataLost(t *testing.T) {
	s := newService(2)
	if _, err := s.Fetch(oid(9, 0), 0, "n0"); !errors.Is(err, ErrDataLost) {
		t.Fatalf("err = %v", err)
	}
}

func TestFetchBadPartition(t *testing.T) {
	s := newService(2)
	if err := s.Register("n0", oid(0, 0), [][]byte{{1}}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Fetch(oid(0, 0), 5, "n0"); err == nil {
		t.Fatal("fetch of out-of-range partition succeeded")
	}
}

func TestNodeFailureLosesOutputs(t *testing.T) {
	s := newService(3)
	if err := s.Register("n0", oid(0, 0), [][]byte{[]byte("x")}); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("n1", oid(1, 0), [][]byte{[]byte("y")}); err != nil {
		t.Fatal(err)
	}
	s.FailNode("n0")
	if _, err := s.Fetch(oid(0, 0), 0, "n2"); !errors.Is(err, ErrDataLost) {
		t.Fatalf("fetch from dead node: %v", err)
	}
	if _, err := s.Fetch(oid(1, 0), 0, "n2"); err != nil {
		t.Fatalf("unrelated output lost: %v", err)
	}
	if err := s.Register("n0", oid(2, 0), [][]byte{{1}}); !errors.Is(err, ErrDataLost) {
		t.Fatalf("register on dead node: %v", err)
	}
}

func TestDeleteDAG(t *testing.T) {
	s := newService(2)
	_ = s.Register("n0", OutputID{DAG: "a", Vertex: "v", Task: 0}, [][]byte{{1}})
	_ = s.Register("n0", OutputID{DAG: "a", Vertex: "v", Task: 1}, [][]byte{{1}})
	_ = s.Register("n0", OutputID{DAG: "b", Vertex: "v", Task: 0}, [][]byte{{1}})
	if n := s.DeleteDAG("a"); n != 2 {
		t.Fatalf("DeleteDAG = %d", n)
	}
	if s.Stats().Outputs != 1 {
		t.Fatalf("outputs left = %d", s.Stats().Outputs)
	}
}

func TestTopologyCounters(t *testing.T) {
	s := newService(4) // n0,n2 on r0; n1,n3 on r1
	_ = s.Register("n0", oid(0, 0), [][]byte{[]byte("data")})
	if _, err := s.Fetch(oid(0, 0), 0, "n0"); err != nil { // local
		t.Fatal(err)
	}
	if _, err := s.Fetch(oid(0, 0), 0, "n2"); err != nil { // same rack
		t.Fatal(err)
	}
	if _, err := s.Fetch(oid(0, 0), 0, "n1"); err != nil { // cross rack
		t.Fatal(err)
	}
	st := s.Stats()
	if st.LocalFetches != 1 || st.RackFetches != 1 || st.OtherFetches != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.BytesFetched != 12 {
		t.Fatalf("bytes = %d", st.BytesFetched)
	}
}

func TestRegisterCopiesData(t *testing.T) {
	s := newService(1)
	buf := []byte("orig")
	_ = s.Register("n0", oid(0, 0), [][]byte{buf})
	buf[0] = 'X'
	got, _ := s.Fetch(oid(0, 0), 0, "n0")
	if string(got) != "orig" {
		t.Fatalf("registered data aliased caller buffer: %q", got)
	}
}

func TestFetcherRetriesTransient(t *testing.T) {
	s := New(Config{TransientErrorRate: 0.5, Seed: 42})
	s.AddNode("n0", "r0")
	_ = s.Register("n0", oid(0, 0), [][]byte{[]byte("x")})
	f := &Fetcher{Service: s, MaxRetries: 50, Backoff: 1}
	got, err := f.Fetch(oid(0, 0), 0, "n0")
	if err != nil {
		t.Fatalf("fetch with retries: %v", err)
	}
	if string(got) != "x" {
		t.Fatalf("got %q", got)
	}
	// With a 50% error rate and 200 fetches, some retries must occur.
	for i := 0; i < 200; i++ {
		if _, err := f.Fetch(oid(0, 0), 0, "n0"); err != nil {
			t.Fatal(err)
		}
	}
	if f.RetryCount() == 0 {
		t.Fatal("expected transient retries")
	}
}

func TestFetcherFatalIsNotRetried(t *testing.T) {
	s := newService(1)
	f := &Fetcher{Service: s, MaxRetries: 3, Backoff: 1}
	if _, err := f.Fetch(oid(0, 0), 0, "n0"); !errors.Is(err, ErrDataLost) {
		t.Fatalf("err = %v", err)
	}
	if f.RetryCount() != 0 {
		t.Fatal("fatal error was retried")
	}
}

func TestFetcherNoRetriesWhenNegative(t *testing.T) {
	// Every fetch fails transiently; a negative MaxRetries must fail on
	// the first attempt with no retries recorded.
	s := New(Config{TransientErrorRate: 1, Seed: 1})
	s.AddNode("n0", "r0")
	_ = s.Register("n0", oid(0, 0), [][]byte{[]byte("x")})
	f := &Fetcher{Service: s, MaxRetries: -1, Backoff: 1}
	if _, err := f.Fetch(oid(0, 0), 0, "n0"); !errors.Is(err, ErrTransient) {
		t.Fatalf("err = %v", err)
	}
	if f.RetryCount() != 0 {
		t.Fatalf("retries = %d, want 0", f.RetryCount())
	}
}

func TestFetcherUnsetRetriesDefaultsToThree(t *testing.T) {
	s := New(Config{TransientErrorRate: 1, Seed: 1})
	s.AddNode("n0", "r0")
	_ = s.Register("n0", oid(0, 0), [][]byte{[]byte("x")})
	f := &Fetcher{Service: s, Backoff: 1} // MaxRetries unset
	if _, err := f.Fetch(oid(0, 0), 0, "n0"); !errors.Is(err, ErrTransient) {
		t.Fatalf("err = %v", err)
	}
	if f.RetryCount() != 3 {
		t.Fatalf("retries = %d, want 3", f.RetryCount())
	}
}

func TestFetcherExactRetryBudget(t *testing.T) {
	s := New(Config{TransientErrorRate: 1, Seed: 1})
	s.AddNode("n0", "r0")
	_ = s.Register("n0", oid(0, 0), [][]byte{[]byte("x")})
	f := &Fetcher{Service: s, MaxRetries: 7, Backoff: 1}
	_, retried, err := f.FetchCounted(oid(0, 0), 0, "n0")
	if !errors.Is(err, ErrTransient) {
		t.Fatalf("err = %v", err)
	}
	if retried != 7 || f.RetryCount() != 7 {
		t.Fatalf("retried = %d total = %d, want 7", retried, f.RetryCount())
	}
}

func TestFetcherConcurrentUse(t *testing.T) {
	s := New(Config{TransientErrorRate: 0.3, Seed: 7})
	s.AddNode("n0", "r0")
	s.AddNode("n1", "r0")
	_ = s.Register("n0", oid(0, 0), [][]byte{[]byte("shared")})
	f := &Fetcher{Service: s, MaxRetries: 50, Backoff: 1}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 25; j++ {
				got, err := f.Fetch(oid(0, 0), 0, "n1")
				if err != nil {
					errs <- err
					return
				}
				if string(got) != "shared" {
					errs <- fmt.Errorf("got %q", got)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

func TestAttemptIsolation(t *testing.T) {
	s := newService(2)
	_ = s.Register("n0", oid(0, 0), [][]byte{[]byte("attempt0")})
	_ = s.Register("n1", oid(0, 1), [][]byte{[]byte("attempt1")})
	g0, _ := s.Fetch(oid(0, 0), 0, "n0")
	g1, _ := s.Fetch(oid(0, 1), 0, "n0")
	if string(g0) != "attempt0" || string(g1) != "attempt1" {
		t.Fatalf("attempts collided: %q %q", g0, g1)
	}
	s.Unregister(oid(0, 0))
	if _, err := s.Fetch(oid(0, 0), 0, "n0"); !errors.Is(err, ErrDataLost) {
		t.Fatal("unregistered output still fetchable")
	}
}

// Property: fetch returns exactly what was registered for every partition.
func TestQuickRegisterFetch(t *testing.T) {
	f := func(parts [][]byte) bool {
		s := newService(3)
		if err := s.Register("n0", oid(0, 0), parts); err != nil {
			return false
		}
		for i, want := range parts {
			got, err := s.Fetch(oid(0, 0), i, "n1")
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		sizes, err := s.PartitionSizes(oid(0, 0))
		if err != nil || len(sizes) != len(parts) {
			return false
		}
		for i := range parts {
			if sizes[i] != int64(len(parts[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestRegisterConcurrentWithFetch: producers register fresh outputs
// (reusing their buffers straight after, as the pooled producer side
// does) while consumers fetch an output registered earlier. Register
// copies outside the service lock, so under -race this checks that the
// copy shares nothing with a fetch and that each stored copy is whole.
func TestRegisterConcurrentWithFetch(t *testing.T) {
	s := newService(2)
	want := bytes.Repeat([]byte("stable"), 1<<10)
	if err := s.Register("n0", oid(0, 0), [][]byte{want}); err != nil {
		t.Fatal(err)
	}
	const producers, rounds = 4, 50
	var wg sync.WaitGroup
	for p := 1; p <= producers; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			buf := make([]byte, 64<<10)
			for r := 0; r < rounds; r++ {
				for i := range buf {
					buf[i] = byte(r)
				}
				if err := s.Register("n1", oid(p, r), [][]byte{buf}); err != nil {
					t.Errorf("register %d/%d: %v", p, r, err)
					return
				}
				got, err := s.Fetch(oid(p, r), 0, "n0")
				if err != nil || len(got) != len(buf) || got[0] != byte(r) || got[len(got)-1] != byte(r) {
					t.Errorf("fetch %d/%d: %d bytes, err %v", p, r, len(got), err)
					return
				}
			}
		}(p)
	}
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for r := 0; r < rounds*producers; r++ {
				got, err := s.Fetch(oid(0, 0), 0, "n1")
				if err != nil || !bytes.Equal(got, want) {
					t.Errorf("fetch of the stable output: %d bytes, err %v", len(got), err)
					return
				}
			}
		}()
	}
	wg.Wait()
}
