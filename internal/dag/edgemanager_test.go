package dag

import (
	"testing"
	"testing/quick"
)

// checkRoutingInvariants verifies, for any edge manager, that:
//  1. every (srcTask, srcOutput) routes to valid destinations and input
//     indices within the destination's physical input count;
//  2. the physical inputs of every destination task are covered exactly
//     once across all routed outputs (a bijection);
//  3. Route, inverted, feeds input idx of dest d from source(d, idx): the
//     input layout the manager documents.
func checkRoutingInvariants(t *testing.T, m EdgeManager, srcN, destN int, source func(d, idx int) int) {
	t.Helper()
	covered := make([]map[int]bool, destN)
	for d := 0; d < destN; d++ {
		covered[d] = map[int]bool{}
	}
	for s := 0; s < srcN; s++ {
		outs := m.NumSourceTaskPhysicalOutputs(s)
		for o := 0; o < outs; o++ {
			for d, idx := range m.Route(s, o) {
				if d < 0 || d >= destN {
					t.Fatalf("Route(%d,%d) → bad dest %d", s, o, d)
				}
				n := m.NumDestinationTaskPhysicalInputs(d)
				if idx < 0 || idx >= n {
					t.Fatalf("Route(%d,%d) → dest %d input %d out of %d", s, o, d, idx, n)
				}
				if covered[d][idx] {
					t.Fatalf("dest %d input %d covered twice", d, idx)
				}
				covered[d][idx] = true
				if want := source(d, idx); want != s {
					t.Fatalf("dest %d input %d comes from source %d, want %d", d, idx, s, want)
				}
			}
		}
	}
	for d := 0; d < destN; d++ {
		if len(covered[d]) != m.NumDestinationTaskPhysicalInputs(d) {
			t.Fatalf("dest %d covered %d of %d inputs", d, len(covered[d]),
				m.NumDestinationTaskPhysicalInputs(d))
		}
	}
}

func TestOneToOneRouting(t *testing.T) {
	m := &OneToOneEdgeManager{}
	if err := m.Initialize(EdgeContext{SrcParallelism: 5, DestParallelism: 5}); err != nil {
		t.Fatal(err)
	}
	checkRoutingInvariants(t, m, 5, 5, func(d, _ int) int { return d })
	if err := (&OneToOneEdgeManager{}).Initialize(EdgeContext{SrcParallelism: 2, DestParallelism: 3}); err == nil {
		t.Fatal("mismatched one-to-one accepted")
	}
}

func TestBroadcastRouting(t *testing.T) {
	m := &BroadcastEdgeManager{}
	if err := m.Initialize(EdgeContext{SrcParallelism: 3, DestParallelism: 4}); err != nil {
		t.Fatal(err)
	}
	checkRoutingInvariants(t, m, 3, 4, func(_, idx int) int { return idx })
	r := m.Route(1, 0)
	if len(r) != 4 {
		t.Fatalf("broadcast reached %d dests", len(r))
	}
	for _, idx := range r {
		if idx != 1 {
			t.Fatalf("broadcast input index %d, want srcTask 1", idx)
		}
	}
}

func TestScatterGatherIdentity(t *testing.T) {
	// Normal case: partitions == dest tasks.
	m := &ScatterGatherEdgeManager{}
	if err := m.Initialize(EdgeContext{SrcParallelism: 4, DestParallelism: 3, BasePartitions: 3}); err != nil {
		t.Fatal(err)
	}
	checkRoutingInvariants(t, m, 4, 3, func(_, idx int) int { return idx % 4 })
	// Partition p of any src goes to dest p.
	for s := 0; s < 4; s++ {
		for p := 0; p < 3; p++ {
			r := m.Route(s, p)
			if len(r) != 1 {
				t.Fatalf("Route fan-out %d", len(r))
			}
			for d := range r {
				if d != p {
					t.Fatalf("partition %d routed to dest %d", p, d)
				}
			}
		}
	}
}

func TestScatterGatherAutoReduceGrouping(t *testing.T) {
	// Auto-reduced: 10 partitions consumed by 3 dest tasks.
	m := &ScatterGatherEdgeManager{}
	if err := m.Initialize(EdgeContext{SrcParallelism: 2, DestParallelism: 3, BasePartitions: 10}); err != nil {
		t.Fatal(err)
	}
	checkRoutingInvariants(t, m, 2, 3, func(_, idx int) int { return idx % 2 })
	// 10 partitions over 3 tasks → 4,3,3; inputs = parts*src.
	wantInputs := []int{8, 6, 6}
	for d, want := range wantInputs {
		if got := m.NumDestinationTaskPhysicalInputs(d); got != want {
			t.Fatalf("dest %d inputs = %d, want %d", d, got, want)
		}
	}
	// Every partition routed to exactly one dest, ranges contiguous.
	prev := -1
	for p := 0; p < 10; p++ {
		var dest int
		for d := range m.Route(0, p) {
			dest = d
		}
		if dest < prev {
			t.Fatalf("partition %d dest %d < previous %d (not contiguous)", p, dest, prev)
		}
		prev = dest
	}
}

func TestScatterGatherRejectsBadGeometry(t *testing.T) {
	m := &ScatterGatherEdgeManager{}
	if err := m.Initialize(EdgeContext{SrcParallelism: 2, DestParallelism: 5, BasePartitions: 3}); err == nil {
		t.Fatal("dest > partitions accepted")
	}
	if err := m.Initialize(EdgeContext{SrcParallelism: 2, DestParallelism: 0, BasePartitions: 3}); err == nil {
		t.Fatal("zero dest accepted")
	}
}

// Property: routing invariants hold for arbitrary scatter-gather geometry.
func TestQuickScatterGatherInvariants(t *testing.T) {
	f := func(srcRaw, destRaw, partsRaw uint8) bool {
		src := int(srcRaw%6) + 1
		parts := int(partsRaw%20) + 1
		dest := int(destRaw)%parts + 1
		m := &ScatterGatherEdgeManager{}
		if err := m.Initialize(EdgeContext{SrcParallelism: src, DestParallelism: dest, BasePartitions: parts}); err != nil {
			return false
		}
		// Reuse the testing invariant checker via a sub-test shim.
		ok := true
		func() {
			defer func() {
				if recover() != nil {
					ok = false
				}
			}()
			covered := map[[2]int]bool{}
			total := 0
			for s := 0; s < src; s++ {
				for o := 0; o < m.NumSourceTaskPhysicalOutputs(s); o++ {
					for d, idx := range m.Route(s, o) {
						if idx < 0 || idx >= m.NumDestinationTaskPhysicalInputs(d) {
							ok = false
							return
						}
						key := [2]int{d, idx}
						if covered[key] {
							ok = false
							return
						}
						covered[key] = true
						total++
						if idx%src != s { // partition-major: input idx comes from source idx % src
							ok = false
							return
						}
					}
				}
			}
			wantTotal := 0
			for d := 0; d < dest; d++ {
				wantTotal += m.NumDestinationTaskPhysicalInputs(d)
			}
			if total != wantTotal {
				ok = false
			}
		}()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: broadcast invariants for arbitrary geometry.
func TestQuickBroadcastInvariants(t *testing.T) {
	f := func(srcRaw, destRaw uint8) bool {
		src := int(srcRaw%8) + 1
		dest := int(destRaw%8) + 1
		m := &BroadcastEdgeManager{}
		if err := m.Initialize(EdgeContext{SrcParallelism: src, DestParallelism: dest}); err != nil {
			return false
		}
		for d := 0; d < dest; d++ {
			if m.NumDestinationTaskPhysicalInputs(d) != src {
				return false
			}
		}
		for s := 0; s < src; s++ {
			r := m.Route(s, 0)
			if len(r) != dest {
				return false
			}
			for _, idx := range r {
				if idx != s {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestNewEdgeManagerCustomRegistry(t *testing.T) {
	RegisterEdgeManager("test.custom", func() EdgeManager { return &BroadcastEdgeManager{} })
	p := EdgeProperty{Movement: CustomMovement}
	p.Manager.Name = "test.custom"
	m, err := NewEdgeManager(p, EdgeContext{SrcParallelism: 2, DestParallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := m.(*BroadcastEdgeManager); !ok {
		t.Fatalf("got %T", m)
	}
	p.Manager.Name = "test.unknown"
	if _, err := NewEdgeManager(p, EdgeContext{}); err == nil {
		t.Fatal("unknown custom manager accepted")
	}
}
