package metrics

import (
	"sync"
	"testing"
	"time"
)

func TestCounters(t *testing.T) {
	c := NewCounters()
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				c.Add("x", 1)
			}
		}()
	}
	wg.Wait()
	if got := c.Get("x"); got != 1000 {
		t.Fatalf("x = %d", got)
	}
	c.Add("a", 2)
	if s := c.String(); s != "a=2 x=1000" {
		t.Fatalf("String = %q", s)
	}
	snap := c.Snapshot()
	snap["x"] = 0
	if c.Get("x") != 1000 {
		t.Fatal("snapshot aliases internal map")
	}
}

func TestTimelineSampler(t *testing.T) {
	var mu sync.Mutex
	v := 0
	s := StartSampler(time.Millisecond, func() map[string]int {
		mu.Lock()
		defer mu.Unlock()
		v++
		return map[string]int{"app": v}
	})
	time.Sleep(20 * time.Millisecond)
	samples := s.Stop()
	if len(samples) < 5 {
		t.Fatalf("only %d samples", len(samples))
	}
	for i := 1; i < len(samples); i++ {
		if samples[i].At < samples[i-1].At {
			t.Fatal("samples not time-ordered")
		}
	}
	if names := SeriesNames(samples); len(names) != 1 || names[0] != "app" {
		t.Fatalf("names = %v", names)
	}
}
