package library

import (
	"cmp"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"tez/internal/dfs"
)

// testRack puts hosts n0..n3 in rack r0, n4..n7 in r1, and so on.
func testRack(host string) string {
	var n int
	_, _ = fmt.Sscanf(host, "n%d", &n)
	return fmt.Sprintf("r%d", n/4)
}

func splitLess(a, b dfs.Split) int {
	return cmp.Or(cmp.Compare(a.Path, b.Path), cmp.Compare(a.Offset, b.Offset))
}

// checkGroups holds GroupSplits(splits, target, testRack) to everything the
// grouping promises, whatever the input, and returns the groups.
func checkGroups(t *testing.T, splits []dfs.Split, target int64) []SplitGroup {
	t.Helper()
	groups := GroupSplits(splits, target, testRack)

	var total int64
	for _, s := range splits {
		total += s.Length
	}
	want := int64(len(splits))
	if target > 0 {
		want = total/target + 1
	}
	if want >= int64(len(splits)) {
		// Nothing to group: the splits come back untouched, one per task.
		if len(groups) != len(splits) {
			t.Fatalf("want %d ≥ %d splits, yet %d groups", want, len(splits), len(groups))
		}
		for i, g := range groups {
			if len(g.Splits) != 1 || !reflect.DeepEqual(g.Splits[0], splits[i]) || !slices.Equal(g.Hosts, splits[i].Hosts) {
				t.Fatalf("group %d = %+v, want split %+v alone with its own hosts", i, g, splits[i])
			}
		}
		return groups
	}
	per := total / want

	// Every split is in exactly one group.
	key := func(s dfs.Split) string { return fmt.Sprintf("%s@%d+%d%v", s.Path, s.Offset, s.Length, s.Hosts) }
	left := map[string]int{}
	for _, s := range splits {
		left[key(s)]++
	}
	for gi, g := range groups {
		if len(g.Splits) == 0 {
			t.Fatalf("group %d is empty", gi)
		}
		var bytes, largest int64
		count := map[string]int{}
		replicas := 0
		for _, s := range g.Splits {
			if left[key(s)]--; left[key(s)] < 0 {
				t.Fatalf("group %d: split %s assigned more often than it was given", gi, key(s))
			}
			bytes += s.Length
			largest = max(largest, s.Length)
			replicas = max(replicas, len(s.Hosts))
			for _, h := range s.Hosts {
				count[h]++
			}
		}
		if !slices.IsSortedFunc(g.Splits, splitLess) {
			t.Fatalf("group %d is not in (path, offset) order: %+v", gi, g.Splits)
		}
		if bytes > per+largest {
			t.Fatalf("group %d holds %d bytes: over %d (total %d / want %d) by more than its largest split (%d)",
				gi, bytes, per, total, want, largest)
		}
		if bytes < per && gi != len(groups)-1 {
			t.Fatalf("group %d of %d is under-filled (%d of %d bytes) and is not the last", gi, len(groups), bytes, per)
		}
		// Hints: exactly the hosts common to every member when there are
		// any; otherwise member hosts, at most a split's worth of them.
		var common []string
		for h, n := range count {
			if n == len(g.Splits) {
				common = append(common, h)
			}
		}
		slices.Sort(common)
		switch {
		case len(common) > 0:
			if !slices.Equal(g.Hosts, common) {
				t.Fatalf("group %d hinted %v, its common hosts are %v", gi, g.Hosts, common)
			}
		case len(count) > 0:
			if len(g.Hosts) == 0 || len(g.Hosts) > replicas {
				t.Fatalf("group %d without a common host hinted %v (largest replica set %d)", gi, g.Hosts, replicas)
			}
			for _, h := range g.Hosts {
				if count[h] == 0 {
					t.Fatalf("group %d hinted %s, which holds none of it", gi, h)
				}
			}
		}
	}
	for k, n := range left {
		if n != 0 {
			t.Fatalf("split %s is in no group", k)
		}
	}

	// The set of splits decides the result, not the order they came in.
	shuffled := slices.Clone(splits)
	rand.New(rand.NewSource(total)).Shuffle(len(shuffled), func(i, j int) {
		shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
	})
	if again := GroupSplits(shuffled, target, testRack); !reflect.DeepEqual(again, groups) {
		t.Fatalf("same splits in another order grouped differently:\n%+v\n%+v", groups, again)
	}
	return groups
}

// evenSplits is files×blocks splits of size bytes; split j of file i has
// its replicas on hosts(i, j).
func evenSplits(files, blocks int, size int64, hosts func(i, j int) []string) []dfs.Split {
	var out []dfs.Split
	for i := 0; i < files; i++ {
		for j := 0; j < blocks; j++ {
			out = append(out, dfs.Split{
				Path: fmt.Sprintf("/t/f%03d", i), Offset: int64(j) * size, Length: size, Hosts: hosts(i, j),
			})
		}
	}
	return out
}

func TestGroupSplits(t *testing.T) {
	threeOfSixteen := func(i, _ int) []string {
		h := []string{fmt.Sprintf("n%d", i%16), fmt.Sprintf("n%d", (i+5)%16), fmt.Sprintf("n%d", (i+11)%16)}
		slices.Sort(h)
		return h
	}
	oneOfFour := func(i, _ int) []string { return []string{fmt.Sprintf("n%d", i%4)} }
	for _, tc := range []struct {
		name   string
		splits []dfs.Split
		target int64
		groups int // exact
	}{
		{"no splits", nil, DefaultGroupBytes, 0},
		{"one split", evenSplits(1, 1, 100, oneOfFour), 10, 1},
		{"caller-sized: target 0 keeps one task per split", evenSplits(8, 4, 4096, threeOfSixteen), 0, 32},
		{"three large files stay three tasks", evenSplits(3, 1, 2_400_000, threeOfSixteen), DefaultGroupBytes, 3},
		{"want above the split count", evenSplits(4, 1, 1<<20, threeOfSixteen), 1 << 10, 4},
		// hive's lineitem: 102 files of 31 KB of stripes. want = 9.
		{"102 small files", evenSplits(102, 1, 31_180, threeOfSixteen), DefaultGroupBytes, 9},
		{"4 tiny files become one task", evenSplits(4, 1, 5_120, threeOfSixteen), DefaultGroupBytes, 1},
		{"no locality at all", evenSplits(40, 1, 1000, func(int, int) []string { return nil }), 10_000, 5},
		{"zero-length splits", evenSplits(5, 1, 0, oneOfFour), 10, 5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if got := checkGroups(t, tc.splits, tc.target); len(got) != tc.groups {
				t.Errorf("%d groups, want %d: %+v", len(got), tc.groups, got)
			}
		})
	}

	// Single-replica splits spread evenly over four hosts, ten per host,
	// five to a group: every group is filled from one host's splits in the
	// host pass, so each has that host — and only it — as its hint.
	t.Run("host pass", func(t *testing.T) {
		groups := checkGroups(t, evenSplits(40, 1, 1000, oneOfFour), 5_500) // want 8, 5 000 a group
		if len(groups) != 8 {
			t.Fatalf("%d groups, want 8", len(groups))
		}
		perHost := map[string]int{}
		for i, g := range groups {
			if len(g.Hosts) != 1 || len(g.Splits) != 5 {
				t.Fatalf("group %d: hints %v over %d splits, want one host over 5", i, g.Hosts, len(g.Splits))
			}
			perHost[g.Hosts[0]]++
		}
		if !reflect.DeepEqual(perHost, map[string]int{"n0": 2, "n1": 2, "n2": 2, "n3": 2}) {
			t.Fatalf("groups per host: %v", perHost)
		}
	})

	// One split per host over eight hosts in two racks, four to a group: no
	// host can fill a group, each rack fills exactly one, and with no host
	// in common the hint is the group's own hosts ranked (here: one, since
	// splits have one replica and all hold equal bytes).
	t.Run("rack pass", func(t *testing.T) {
		groups := checkGroups(t, evenSplits(8, 1, 1000, func(i, _ int) []string { return []string{fmt.Sprintf("n%d", i)} }), 4_500)
		if len(groups) != 2 {
			t.Fatalf("%d groups, want 2", len(groups))
		}
		for i, g := range groups {
			racks := map[string]bool{}
			for _, s := range g.Splits {
				racks[testRack(s.Hosts[0])] = true
			}
			if len(racks) != 1 || !racks[testRack(g.Hosts[0])] {
				t.Fatalf("group %d spans racks %v, hinted %v", i, racks, g.Hosts)
			}
		}
	})
}

// TestQuickGroupSplits runs the property list over seeded random split
// sets: several files of one to eight blocks, mixed block sizes, one to
// three replicas from a pool of six hosts, and a target anywhere from a
// fraction of a split to more than the whole input.
func TestQuickGroupSplits(t *testing.T) {
	for seed := int64(1); seed <= 500; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var splits []dfs.Split
		for f, files := 0, 1+rng.Intn(12); f < files; f++ {
			var off int64
			for b, blocks := 0, 1+rng.Intn(8); b < blocks; b++ {
				length := int64(1 + rng.Intn(4096))
				hosts := make([]string, 0, 3)
				for _, h := range rng.Perm(6)[:1+rng.Intn(3)] {
					hosts = append(hosts, fmt.Sprintf("n%d", h))
				}
				slices.Sort(hosts)
				splits = append(splits, dfs.Split{Path: fmt.Sprintf("/t/f%d", f), Offset: off, Length: length, Hosts: hosts})
				off += length
			}
		}
		target := int64(1 + rng.Intn(40_000))
		checkGroups(t, splits, target)
		if t.Failed() {
			t.Fatalf("seed %d, target %d, %d splits", seed, target, len(splits))
		}
	}
}

// fuzzSplits builds a split set from fuzzer bytes, three per split: the
// file (offsets run on within a file), the length in units of 256 bytes
// and a mask over eight hosts in two racks.
func fuzzSplits(data []byte) []dfs.Split {
	var splits []dfs.Split
	next := map[byte]int64{}
	for ; len(data) >= 3; data = data[3:] {
		s := dfs.Split{Path: fmt.Sprintf("/t/f%03d", data[0]), Offset: next[data[0]], Length: int64(data[1]) << 8}
		for h := 0; h < 8; h++ {
			if data[2]&(1<<h) != 0 {
				s.Hosts = append(s.Hosts, fmt.Sprintf("n%d", h))
			}
		}
		next[data[0]] += s.Length
		splits = append(splits, s)
	}
	return splits
}

// FuzzGroupSplits holds the grouping to checkGroups' property list over
// fuzzer-built split sets and targets. The checked-in corpus has the two
// shapes the benchmark's inputs come in: 102 files of 40.5 KiB with three
// replicas (nine groups at 512 KiB) and 4 files of 5 KiB (one).
func FuzzGroupSplits(f *testing.F) {
	f.Add([]byte{0, 4, 1, 0, 4, 2, 1, 4, 3}, int64(1500))
	f.Fuzz(func(t *testing.T, data []byte, target int64) {
		if len(data) > 3*1024 {
			t.Skip("more splits than grouping in quadratic checks is worth")
		}
		checkGroups(t, fuzzSplits(data), target)
	})
}
