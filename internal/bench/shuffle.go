package bench

import (
	"fmt"
	"reflect"
	"time"

	"tez/internal/am"
	"tez/internal/data"
	"tez/internal/hive"
	"tez/internal/mapreduce"
	"tez/internal/platform"
	"tez/internal/relop"
)

// ablationShuffleCodec runs wordcount, a Hive query and a Pig script end to
// end under codec none and flate: the flate runs must commit byte-identical
// answers while moving fewer bytes over the simulated wire. A diverged
// answer fails the run after the table is built.
func ablationShuffleCodec(sc Scale) (*Report, error) {
	plat := platform.New(platform.Default(6))
	defer plat.Stop()
	if err := writeWords(plat, "/bench/codec/words", sc.PigRows); err != nil {
		return nil, err
	}
	// q18's join sides ship every lineitem and orders row; an
	// aggregate's producers ship a row per group since they pre-aggregate,
	// too few bytes for a codec to matter.
	tp, err := data.GenTPCH(plat.FS, sc.TPCHOrders, 21)
	if err != nil {
		return nil, err
	}
	t1, err := data.GenZipfPairs(plat.FS, "codec_a", sc.PigRows, 200, 1.3, 22)
	if err != nil {
		return nil, err
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
		{"hive-q18", func(sess *am.Session, out string) (am.DAGResult, error) {
			eng := hive.NewEngine()
			eng.Exec = relop.Config{DefaultPartitions: 8}
			eng.Register(tp.Tables()...)
			return eng.RunTez(sess, "codec-q18", data.TPCHQueries[4].SQL, out)
		}, func(out string) (any, error) { return relop.ReadStored(plat.FS, out) }},
		{"pig-group_agg", func(sess *am.Session, out string) (am.DAGResult, error) {
			return pigWorkloads[0].build(t1, nil, out).RunTez(sess)
		}, func(out string) (any, error) { return relop.ReadStored(plat.FS, out) }},
	}

	rep := &Report{
		Figure:  "Ablation",
		Title:   "Shuffle wire codec: none vs flate, end to end",
		Headers: []string{"workload", "codec", "time (ms)", "wire B", "raw B", "wire %", "result"},
		Notes: []string{
			"result compares the committed output against the codec=none run of the same workload",
		},
	}
	for _, w := range workloads {
		var baseline any
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
			if codec == "none" {
				baseline = answer
			}
			verdict := "identical"
			if !reflect.DeepEqual(answer, baseline) {
				verdict = "DIVERGED"
			}
			wire := res.Counters.Get("SHUFFLE_BYTES_WIRE")
			raw := res.Counters.Get("SHUFFLE_BYTES_RAW")
			var wirePct float64
			if raw > 0 {
				wirePct = 100 * float64(wire) / float64(raw)
			}
			rep.AddRow(w.name, codec, ms(dur),
				fmt.Sprintf("%d", wire), fmt.Sprintf("%d", raw),
				fmt.Sprintf("%.1f", wirePct), verdict)
		}
	}
	return rep, divergedErr(rep)
}
