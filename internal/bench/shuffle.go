package bench

import (
	"fmt"
	"reflect"
	"sort"
	"testing"
	"time"

	"tez/internal/am"
	"tez/internal/data"
	"tez/internal/event"
	"tez/internal/hive"
	"tez/internal/library"
	"tez/internal/mapreduce"
	"tez/internal/metrics"
	"tez/internal/platform"
	"tez/internal/plugin"
	"tez/internal/relop"
	"tez/internal/runtime"
	"tez/internal/shuffle"
)

// ShuffleBenchResult is one row of the map-side sort ablation, shaped for
// BENCH_shuffle.json: the standard go-bench triple plus per-record
// normalisations (the shuffle sorts record streams, so per-record cost is
// the number that transfers across input sizes).
type ShuffleBenchResult struct {
	Variant         string  `json:"variant"`
	Records         int     `json:"records"`
	NsPerOp         int64   `json:"ns_per_op"`
	BytesPerOp      int64   `json:"bytes_per_op"`
	AllocsPerOp     int64   `json:"allocs_per_op"`
	NsPerRecord     float64 `json:"ns_per_record"`
	AllocsPerRecord float64 `json:"allocs_per_record"`
}

// shuffleRecords sizes the sort ablation input; the acceptance bar is a
// ≥100k-record shuffle at the default (small) benchmark scale.
func shuffleRecords(sc Scale) int {
	switch sc.Name {
	case "full":
		return 400_000
	case "tiny":
		return 12_000
	default:
		return 120_000
	}
}

// benchKeys builds the key set once: word-shaped keys over a modest
// vocabulary, so sorting does real comparison work and flate finds real
// redundancy, without per-record fmt/alloc noise inside the timed loop.
func benchKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("word-%04d", i))
	}
	return keys
}

// runOrderedProducer drives the real OrderedPartitionedKVOutput once:
// write every record, sort/spill/merge, register with a throwaway shuffle
// service. This is exactly the map-side data plane a task attempt runs.
func runOrderedProducer(cfg *library.OrderedPartitionedConfig, parts int, keys [][]byte, records int) error {
	sh := shuffle.New(shuffle.Config{})
	sh.AddNode("n0", "r0")
	var payload []byte
	if cfg != nil {
		payload = plugin.MustEncode(*cfg)
	}
	out := &library.OrderedPartitionedKVOutput{}
	ctx := &runtime.Context{
		Meta:          runtime.Meta{DAG: "bench", Vertex: "map", Task: 0, Attempt: 0},
		Services:      runtime.Services{Shuffle: sh, Node: "n0", Counters: metrics.NewCounters()},
		Payload:       payload,
		Name:          "red",
		PhysicalCount: parts,
		Emit:          func(event.Event) {},
		Stop:          make(chan struct{}),
	}
	if err := out.Initialize(ctx); err != nil {
		return err
	}
	wAny, err := out.Writer()
	if err != nil {
		return err
	}
	w := wAny.(runtime.KVWriter)
	one := []byte("1")
	for i := 0; i < records; i++ {
		if err := w.Write(keys[i%len(keys)], one); err != nil {
			return err
		}
	}
	_, err = out.Close()
	return err
}

// runBoxedProducer is the pre-arena baseline the tentpole replaced: one
// boxed pair per record (two byte-slice copies plus the slice headers),
// sort.Slice over the boxed pairs, then per-partition encode. Kept here,
// re-implemented, so the ablation always measures the old representation
// against whatever the library currently does.
func runBoxedProducer(parts int, keys [][]byte, records int) error {
	type boxedPair struct {
		part int
		k, v []byte
	}
	hp := library.HashPartitioner{}
	one := []byte("1")
	pairs := make([]boxedPair, 0)
	for i := 0; i < records; i++ {
		k := keys[i%len(keys)]
		pairs = append(pairs, boxedPair{
			part: hp.Partition(k, parts),
			k:    append([]byte(nil), k...),
			v:    append([]byte(nil), one...),
		})
	}
	sort.Slice(pairs, func(i, j int) bool {
		a, b := pairs[i], pairs[j]
		if a.part != b.part {
			return a.part < b.part
		}
		if c := string(a.k); c != string(b.k) {
			return c < string(b.k)
		}
		return string(a.v) < string(b.v)
	})
	sh := shuffle.New(shuffle.Config{})
	sh.AddNode("n0", "r0")
	enc := make([][]byte, parts)
	i := 0
	for p := 0; p < parts; p++ {
		var buf []byte
		for i < len(pairs) && pairs[i].part == p {
			buf = library.AppendRecord(buf, pairs[i].k, pairs[i].v)
			i++
		}
		enc[p] = buf
	}
	return sh.Register("n0", shuffle.OutputID{DAG: "bench", Vertex: "map", Name: "red", Task: 0, Attempt: 0}, enc)
}

// ShuffleSortResults measures the four map-side variants with
// testing.Benchmark and returns machine-readable rows.
func ShuffleSortResults(sc Scale) ([]ShuffleBenchResult, error) {
	const parts = 8
	records := shuffleRecords(sc)
	keys := benchKeys(997)
	spillBudget := records // ~records bytes is ~1/12 of the raw data: several spills
	variants := []struct {
		name string
		run  func() error
	}{
		{"serial-boxed", func() error { return runBoxedProducer(parts, keys, records) }},
		{"arena", func() error { return runOrderedProducer(nil, parts, keys, records) }},
		{"arena-spill", func() error {
			return runOrderedProducer(&library.OrderedPartitionedConfig{SortBytes: int64(spillBudget)}, parts, keys, records)
		}},
		{"arena-flate", func() error {
			return runOrderedProducer(&library.OrderedPartitionedConfig{Codec: "flate"}, parts, keys, records)
		}},
	}
	var out []ShuffleBenchResult
	for _, v := range variants {
		var failure error
		res := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := v.run(); err != nil {
					failure = err
					b.FailNow()
				}
			}
		})
		if failure != nil {
			return nil, fmt.Errorf("%s: %w", v.name, failure)
		}
		out = append(out, ShuffleBenchResult{
			Variant:         v.name,
			Records:         records,
			NsPerOp:         res.NsPerOp(),
			BytesPerOp:      res.AllocedBytesPerOp(),
			AllocsPerOp:     res.AllocsPerOp(),
			NsPerRecord:     float64(res.NsPerOp()) / float64(records),
			AllocsPerRecord: float64(res.AllocsPerOp()) / float64(records),
		})
	}
	return out, nil
}

// AblationShuffleSort renders the map-side sort ablation: boxed pairs vs
// the arena key-prefix index sort, with spilling and wire compression ablated in.
func AblationShuffleSort(sc Scale) (*Report, error) {
	rows, err := ShuffleSortResults(sc)
	if err != nil {
		return nil, err
	}
	return ShuffleSortReport(rows), nil
}

// ShuffleSortReport renders precomputed sort-ablation rows.
func ShuffleSortReport(rows []ShuffleBenchResult) *Report {
	rep := &Report{
		Figure:  "Ablation",
		Title:   "Shuffle sort data plane: boxed pairs vs arena key-prefix index sort",
		Headers: []string{"variant", "ns/op", "B/op", "allocs/op", "allocs/record", "ns/record"},
		Notes: []string{
			fmt.Sprintf("%d records, 8 partitions per op; arena-spill runs a constrained sort budget, arena-flate compresses the wire blocks", rows[0].Records),
		},
	}
	for _, r := range rows {
		rep.AddRow(r.Variant,
			fmt.Sprintf("%d", r.NsPerOp),
			fmt.Sprintf("%d", r.BytesPerOp),
			fmt.Sprintf("%d", r.AllocsPerOp),
			fmt.Sprintf("%.3f", r.AllocsPerRecord),
			fmt.Sprintf("%.1f", r.NsPerRecord))
	}
	return rep
}

// ShuffleCodecResult is one row of the end-to-end codec ablation for
// BENCH_shuffle.json.
type ShuffleCodecResult struct {
	Workload  string  `json:"workload"`
	Codec     string  `json:"codec"`
	Millis    float64 `json:"ms"`
	BytesWire int64   `json:"shuffle_bytes_wire"`
	BytesRaw  int64   `json:"shuffle_bytes_raw"`
	WirePct   float64 `json:"wire_pct"`
	Identical bool    `json:"identical_to_none"`
}

// ShuffleCodecResults runs wordcount, a Hive query and a Pig script end to
// end under codec none and flate, asserting the flate runs produce
// byte-identical answers while moving fewer bytes over the simulated wire.
func ShuffleCodecResults(sc Scale) ([]ShuffleCodecResult, error) {
	plat := platform.New(platform.Default(6))
	defer plat.Stop()
	if err := writeWords(plat, "/bench/codec/words", sc.PigRows); err != nil {
		return nil, err
	}
	td, err := data.GenTPCDS(plat.FS, sc.TPCDSSales, 21)
	if err != nil {
		return nil, err
	}
	t1, err := data.GenZipfPairs(plat.FS, "codec_a", sc.PigRows, 200, 1.3, 22)
	if err != nil {
		return nil, err
	}

	type outcome struct {
		res    am.DAGResult
		answer any
		dur    time.Duration
	}
	workloads := []struct {
		name string
		run  func(sess *am.Session, out string) (am.DAGResult, error)
		read func(out string) (any, error)
	}{
		{"wordcount", func(sess *am.Session, out string) (am.DAGResult, error) {
			return mapreduce.RunOnTez(sess, mapreduce.JobConf{
				Name: "wc", Map: "bench.tokenize", Reduce: "bench.count",
				InputPaths: []string{"/bench/codec/words"}, OutputPath: out,
			})
		}, func(out string) (any, error) { return readCountsDFS(plat, out) }},
		{"hive-q7", func(sess *am.Session, out string) (am.DAGResult, error) {
			eng := hive.NewEngine()
			eng.Exec = relop.Config{DefaultPartitions: 8}
			eng.Register(td.Tables()...)
			return eng.RunTez(sess, "codec-q7", tpcdsQueries[2].sql, out)
		}, func(out string) (any, error) { return relop.ReadStored(plat.FS, out) }},
		{"pig-group_agg", func(sess *am.Session, out string) (am.DAGResult, error) {
			return pigWorkloads[0].build(t1, nil, out).RunTez(sess)
		}, func(out string) (any, error) { return relop.ReadStored(plat.FS, out) }},
	}

	var rows []ShuffleCodecResult
	for _, w := range workloads {
		byCodec := map[string]outcome{}
		for _, codec := range []string{"none", "flate"} {
			sess := am.NewSession(plat, am.Config{
				Name:         fmt.Sprintf("codec-%s-%s", w.name, codec),
				ShuffleCodec: codec,
			})
			out := fmt.Sprintf("/bench/codec/%s-%s", w.name, codec)
			start := time.Now()
			res, err := w.run(sess, out)
			dur := time.Since(start)
			sess.Close()
			if err != nil {
				return nil, fmt.Errorf("%s under %s: %w", w.name, codec, err)
			}
			if res.Status != am.DAGSucceeded {
				return nil, fmt.Errorf("%s under %s: %v", w.name, codec, res.Status)
			}
			answer, err := w.read(out)
			if err != nil {
				return nil, err
			}
			byCodec[codec] = outcome{res: res, answer: answer, dur: dur}
		}
		for _, codec := range []string{"none", "flate"} {
			o := byCodec[codec]
			wire := o.res.Counters.Get("SHUFFLE_BYTES_WIRE")
			raw := o.res.Counters.Get("SHUFFLE_BYTES_RAW")
			row := ShuffleCodecResult{
				Workload:  w.name,
				Codec:     codec,
				Millis:    float64(o.dur.Microseconds()) / 1000,
				BytesWire: wire,
				BytesRaw:  raw,
				Identical: reflect.DeepEqual(o.answer, byCodec["none"].answer),
			}
			if raw > 0 {
				row.WirePct = 100 * float64(wire) / float64(raw)
			}
			rows = append(rows, row)
		}
	}
	return rows, nil
}

// AblationShuffleCodec renders the wire-compression ablation.
func AblationShuffleCodec(sc Scale) (*Report, error) {
	rows, err := ShuffleCodecResults(sc)
	if err != nil {
		return nil, err
	}
	return ShuffleCodecReport(rows), nil
}

// ShuffleCodecReport renders precomputed codec-ablation rows.
func ShuffleCodecReport(rows []ShuffleCodecResult) *Report {
	rep := &Report{
		Figure:  "Ablation",
		Title:   "Shuffle wire codec: none vs flate, end to end",
		Headers: []string{"workload", "codec", "time (ms)", "wire B", "raw B", "wire %", "result"},
		Notes: []string{
			"result compares the committed output against the codec=none run of the same workload",
		},
	}
	for _, r := range rows {
		verdict := "identical"
		if !r.Identical {
			verdict = "DIVERGED"
		}
		rep.AddRow(r.Workload, r.Codec, fmt.Sprintf("%.1f", r.Millis),
			fmt.Sprintf("%d", r.BytesWire), fmt.Sprintf("%d", r.BytesRaw),
			fmt.Sprintf("%.1f", r.WirePct), verdict)
	}
	return rep
}
