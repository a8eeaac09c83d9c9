package library

import (
	"cmp"
	"slices"

	"tez/internal/dfs"
	"tez/internal/plugin"
	"tez/internal/runtime"
)

// DefaultGroupBytes is how much input the library gives one root-input
// task when the caller leaves the sizing to it (SplitSourceConfig with
// DesiredSplitSize 0). EXPERIMENTS.md has the 128 KiB–2 MiB sweep the
// value comes from: its knee was 512 KiB of row-encoded table files, and
// column stripes hold the same rows in three quarters of the bytes.
const DefaultGroupBytes = 384 << 10

// SplitGroup is one task's share of a data source: its splits in (path,
// offset) order and the hosts to ask the scheduler for.
type SplitGroup struct {
	Splits []dfs.Split
	Hosts  []string
}

// GroupSplits is the split grouping of §3.5: it sizes root-input tasks by
// bytes and locality instead of by how the producer laid the files out.
// want = total/targetBytes + 1 tasks are aimed for. When that is at least
// the number of splits (or targetBytes is not positive: the caller fixed
// the unit of work) every split is its own group, in the order given.
// Otherwise groups of total/want bytes are filled in three passes over the
// splits sorted by (path, offset): per replica host, then per rack (rackOf
// maps a host to its rack; nil skips the pass), then from whatever is
// left. Within a pass the keys are visited in sorted order, one group per
// key per round, until no key can fill a group; what a key cannot fill is
// released to the next pass, and only the last pass keeps an under-filled
// group. The result depends on the set of splits alone, not on their order.
func GroupSplits(splits []dfs.Split, targetBytes int64, rackOf func(host string) string) []SplitGroup {
	var total int64
	for _, s := range splits {
		total += s.Length
	}
	want := int64(len(splits))
	if targetBytes > 0 {
		want = total/targetBytes + 1
	}
	if want >= int64(len(splits)) {
		groups := make([]SplitGroup, len(splits))
		for i, s := range splits {
			groups[i] = SplitGroup{Splits: []dfs.Split{s}, Hosts: s.Hosts}
		}
		return groups
	}
	per := total / want

	sorted := slices.Clone(splits)
	slices.SortFunc(sorted, func(a, b dfs.Split) int {
		return cmp.Or(cmp.Compare(a.Path, b.Path), cmp.Compare(a.Offset, b.Offset),
			cmp.Compare(a.Length, b.Length), slices.Compare(a.Hosts, b.Hosts))
	})
	byHost, byRack := map[string][]int{}, map[string][]int{}
	// list files split i under key once, however many of its replicas map
	// to the key (i only grows, so a repeat is the list's last entry).
	list := func(m map[string][]int, key string, i int) {
		if l := m[key]; len(l) == 0 || l[len(l)-1] != i {
			m[key] = append(l, i)
		}
	}
	everything := make([]int, len(sorted))
	for i, s := range sorted {
		everything[i] = i
		for _, h := range s.Hosts {
			list(byHost, h, i)
			if rackOf != nil {
				list(byRack, rackOf(h), i)
			}
		}
	}

	assigned := make([]bool, len(sorted))
	var groups []SplitGroup
	fill := func(members map[string][]int, keepRemainder bool) {
		keys := make([]string, 0, len(members))
		for k := range members {
			keys = append(keys, k)
		}
		slices.Sort(keys)
		for progress := true; progress; {
			progress = false
			for _, k := range keys {
				// Drop the assigned head so a key's scans stay short.
				for len(members[k]) > 0 && assigned[members[k][0]] {
					members[k] = members[k][1:]
				}
				var take []int
				var bytes int64
				for _, i := range members[k] {
					if assigned[i] {
						continue
					}
					take = append(take, i)
					if bytes += sorted[i].Length; bytes >= per {
						break
					}
				}
				if len(take) == 0 || (bytes < per && !keepRemainder) {
					continue
				}
				g := SplitGroup{Splits: make([]dfs.Split, len(take))}
				for j, i := range take {
					assigned[i] = true
					g.Splits[j] = sorted[i]
				}
				g.Hosts = groupHosts(g.Splits)
				groups = append(groups, g)
				progress = true
			}
		}
	}
	fill(byHost, false)
	fill(byRack, false)
	fill(map[string][]int{"": everything}, true)
	return groups
}

// groupHosts is a group's location hint: the hosts that hold every split
// of the group (a group filled from one host's splits has at least that
// host), or, when no host holds them all, the hosts holding the most of
// the group's bytes — as many as one split has replicas. Sorted, or ranked
// by bytes with ties by name.
func groupHosts(splits []dfs.Split) []string {
	local := map[string]int64{}
	count := map[string]int{}
	replicas := 0
	for _, s := range splits {
		replicas = max(replicas, len(s.Hosts))
		for _, h := range s.Hosts {
			local[h] += s.Length
			count[h]++
		}
	}
	var common, ranked []string
	for h, n := range count {
		if n == len(splits) {
			common = append(common, h)
		}
		ranked = append(ranked, h)
	}
	if len(common) > 0 {
		slices.Sort(common)
		return common
	}
	slices.SortFunc(ranked, func(a, b string) int {
		return cmp.Or(cmp.Compare(local[b], local[a]), cmp.Compare(a, b))
	})
	return ranked[:min(replicas, len(ranked))]
}

// SplitTasks is split calculation for a DFS data source, the one place
// that turns paths into root-input tasks. desiredSplitSize > 0 means the
// caller fixed the unit of work: files are cut at that size and every
// split is one task. 0 means the library sizes the tasks: files are cut at
// block size and the splits grouped to DefaultGroupBytes per task. A
// source without splits still gets one (empty) task, because a vertex
// needs one.
func SplitTasks(fs *dfs.FileSystem, paths []string, desiredSplitSize int64) (*runtime.InitializerResult, error) {
	var all []dfs.Split
	for _, p := range paths {
		splits, err := fs.Splits(p, desiredSplitSize)
		if err != nil {
			return nil, err
		}
		all = append(all, splits...)
	}
	var target int64
	if desiredSplitSize == 0 {
		target = DefaultGroupBytes
	}
	groups := GroupSplits(all, target, fs.Rack)
	if len(groups) == 0 {
		groups = []SplitGroup{{}}
	}
	res := &runtime.InitializerResult{Parallelism: len(groups)}
	for _, g := range groups {
		res.PerTaskPayload = append(res.PerTaskPayload, plugin.MustEncode(SplitAssignment{Splits: g.Splits}))
		res.LocationHints = append(res.LocationHints, g.Hosts)
	}
	return res, nil
}
