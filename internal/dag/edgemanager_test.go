package dag

import (
	"maps"
	"math/rand"
	"slices"
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
	// Auto-reduced: 10 partitions consumed by 3 dest tasks, ranges
	// [0,2) [2,7) [7,10).
	m := &ScatterGatherEdgeManager{}
	if err := m.Initialize(EdgeContext{SrcParallelism: 2, DestParallelism: 3, BasePartitions: 10, Starts: []int{0, 2, 7}}); err != nil {
		t.Fatal(err)
	}
	checkRoutingInvariants(t, m, 2, 3, func(_, idx int) int { return idx % 2 })
	// inputs = parts*src.
	wantInputs := []int{4, 10, 6}
	for d, want := range wantInputs {
		if got := m.NumDestinationTaskPhysicalInputs(d); got != want {
			t.Fatalf("dest %d inputs = %d, want %d", d, got, want)
		}
	}
	// Partition p of source s reaches its range's task at input
	// (p - start)*src + s.
	wantDest := []int{0, 0, 1, 1, 1, 1, 1, 2, 2, 2}
	starts := []int{0, 2, 7}
	for p := 0; p < 10; p++ {
		for s := 0; s < 2; s++ {
			d := wantDest[p]
			want := map[int]int{d: (p-starts[d])*2 + s}
			if got := m.Route(s, p); !maps.Equal(got, want) {
				t.Fatalf("Route(%d, %d) = %v, want %v", s, p, got, want)
			}
		}
	}
}

func TestScatterGatherRejectsBadGeometry(t *testing.T) {
	for name, ctx := range map[string]EdgeContext{
		"dest > partitions":       {SrcParallelism: 2, DestParallelism: 5, BasePartitions: 3},
		"dest < partitions":       {SrcParallelism: 2, DestParallelism: 2, BasePartitions: 3},
		"zero dest":               {SrcParallelism: 2, DestParallelism: 0, BasePartitions: 3},
		"first start not 0":       {SrcParallelism: 2, DestParallelism: 2, BasePartitions: 4, Starts: []int{1, 3}},
		"starts repeat":           {SrcParallelism: 2, DestParallelism: 3, BasePartitions: 4, Starts: []int{0, 2, 2}},
		"starts decrease":         {SrcParallelism: 2, DestParallelism: 3, BasePartitions: 4, Starts: []int{0, 3, 1}},
		"start at partitions":     {SrcParallelism: 2, DestParallelism: 2, BasePartitions: 4, Starts: []int{0, 4}},
		"start past partitions":   {SrcParallelism: 2, DestParallelism: 2, BasePartitions: 4, Starts: []int{0, 9}},
		"fewer starts than dests": {SrcParallelism: 2, DestParallelism: 3, BasePartitions: 4, Starts: []int{0, 2}},
		"more starts than dests":  {SrcParallelism: 2, DestParallelism: 1, BasePartitions: 4, Starts: []int{0, 2}},
		"empty starts":            {SrcParallelism: 2, DestParallelism: 1, BasePartitions: 4, Starts: []int{}},
	} {
		if err := (&ScatterGatherEdgeManager{}).Initialize(ctx); err == nil {
			t.Errorf("%s accepted: %+v", name, ctx)
		}
	}
}

// Property: routing invariants hold for arbitrary scatter-gather geometry
// — random partition ranges among them: every partition of every source
// reaches exactly one destination, each destination's physical inputs are
// exactly [0, n), partition-major, and each destination's partitions are
// contiguous.
func TestQuickScatterGatherInvariants(t *testing.T) {
	f := func(seed int64, srcRaw, destRaw, partsRaw uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		src := int(srcRaw%6) + 1
		parts := int(partsRaw%20) + 1
		dest := int(destRaw)%parts + 1
		var starts []int
		if dest < parts || rng.Intn(2) == 0 {
			// dest-1 distinct cut points in [1, parts), sorted.
			starts = append([]int{0}, rng.Perm(parts - 1)[:dest-1]...)
			for i := 1; i < len(starts); i++ {
				starts[i]++
			}
			slices.Sort(starts)
		}
		m := &ScatterGatherEdgeManager{}
		if err := m.Initialize(EdgeContext{SrcParallelism: src, DestParallelism: dest, BasePartitions: parts, Starts: starts}); err != nil {
			t.Logf("starts %v: %v", starts, err)
			return false
		}
		covered := map[[2]int]bool{}
		partsOf := make([][]int, dest)
		for s := 0; s < src; s++ {
			if m.NumSourceTaskPhysicalOutputs(s) != parts {
				return false
			}
			for o := 0; o < parts; o++ {
				r := m.Route(s, o)
				if len(r) != 1 {
					return false
				}
				for d, idx := range r {
					if d < 0 || d >= dest || idx < 0 || idx >= m.NumDestinationTaskPhysicalInputs(d) {
						return false
					}
					key := [2]int{d, idx}
					if covered[key] {
						return false
					}
					covered[key] = true
					if idx%src != s { // partition-major: input idx comes from source idx % src
						return false
					}
					if s == 0 {
						partsOf[d] = append(partsOf[d], o)
					}
				}
			}
		}
		for d := 0; d < dest; d++ {
			n := m.NumDestinationTaskPhysicalInputs(d)
			for idx := 0; idx < n; idx++ {
				if !covered[[2]int{d, idx}] {
					return false
				}
			}
			if len(partsOf[d]) == 0 || n != len(partsOf[d])*src {
				return false
			}
			for i := 1; i < len(partsOf[d]); i++ {
				if partsOf[d][i] != partsOf[d][i-1]+1 {
					return false
				}
			}
		}
		return len(covered) == src*parts
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
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
