package main

import (
	"bytes"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"tez/internal/am"
	"tez/internal/dag"
	"tez/internal/dfs"
	"tez/internal/library"
	"tez/internal/platform"
	"tez/internal/plugin"
	"tez/internal/runtime"
)

// The map and reduce functions of both MapReduce-shaped workloads: the
// processor is strings.Fields, so the data plane under it does the work.
const (
	tokenizeFunc = "benchmark.tokenize"
	countFunc    = "benchmark.count"
)

func init() {
	library.RegisterMapFunc(tokenizeFunc, func(_, value []byte, out runtime.KVWriter) error {
		for _, w := range strings.Fields(string(value)) {
			if err := out.Write([]byte(w), []byte("1")); err != nil {
				return err
			}
		}
		return nil
	})
	library.RegisterReduceFunc(countFunc, func(key []byte, values [][]byte, out runtime.KVWriter) error {
		return out.Write(key, []byte(strconv.Itoa(len(values))))
	})
}

const wordsPerLine = 8

// textGen draws lines of wordsPerLine words with Zipf frequencies, the
// shape of natural text: some hot keys, a long tail. The seed picks the
// sequence of draws; the vocabulary itself is the same for every seed,
// because which partition the hot words hash to decides how the library's
// buffers grow, and job_alloc_mb moved by 8 % between seeds when the seed
// picked the words too. The record count is fixed by the line count, so
// every seed is the same amount of work.
type textGen struct {
	vocab []string
	zipf  *rand.Zipf
}

func newTextGen(seed int64, vocabSize int) *textGen {
	letters := rand.New(rand.NewSource(int64(vocabSize)))
	seen := make(map[string]bool, vocabSize)
	vocab := make([]string, 0, vocabSize)
	for len(vocab) < vocabSize {
		b := make([]byte, 4+len(vocab)%6)
		for i := range b {
			b[i] = byte('a' + letters.Intn(26))
		}
		if w := string(b); !seen[w] {
			seen[w] = true
			vocab = append(vocab, w)
		}
	}
	// v = 10 flattens the head: the hottest word is about 2 % of the
	// text, not a fifth of it.
	draws := rand.New(rand.NewSource(seed))
	return &textGen{vocab: vocab, zipf: rand.NewZipf(draws, 1.1, 10, uint64(vocabSize-1))}
}

func (g *textGen) word() string { return g.vocab[g.zipf.Uint64()] }

func (g *textGen) line(buf []byte) []byte {
	buf = buf[:0]
	for i := 0; i < wordsPerLine; i++ {
		if i > 0 {
			buf = append(buf, ' ')
		}
		buf = append(buf, g.word()...)
	}
	return buf
}

// sortChargePerRecord mirrors the library's sort-budget accounting: the
// arena holds key and value bytes and each record charges one 24-byte
// index entry, so a budget aimed at N runs must count both.
const sortChargePerRecord = 24

// writeText writes lines of generated text as one record file on node,
// adds each word to counts (the plain-Go reference) and returns the sort-
// buffer charge the file's map output will incur.
func writeText(fs *dfs.FileSystem, path, node string, g *textGen, lines int, counts map[string]int) (int64, error) {
	w, err := library.CreateRecordFile(fs, path, node)
	if err != nil {
		return 0, err
	}
	var charge int64
	var buf []byte
	for i := 0; i < lines; i++ {
		buf = g.line(buf)
		if err := w.Write(nil, buf); err != nil {
			return 0, err
		}
		for _, word := range strings.Fields(string(buf)) {
			counts[word]++
			charge += int64(len(word)) + 1 + sortChargePerRecord
		}
	}
	return charge, w.Close()
}

// readParts reads the committed part files of one output directory keyed
// by their name relative to it.
func readParts(fs *dfs.FileSystem, out string) (map[string][]byte, error) {
	parts := map[string][]byte{}
	for _, f := range fs.List(out + "/part-") {
		blob, err := fs.ReadFile(f, "")
		if err != nil {
			return nil, err
		}
		parts[strings.TrimPrefix(f, out)] = blob
	}
	return parts, nil
}

func sameParts(a, b map[string][]byte) error {
	if len(a) != len(b) {
		return fmt.Errorf("output has %d part files, the first job had %d", len(a), len(b))
	}
	for name, blob := range a {
		if !bytes.Equal(blob, b[name]) {
			return fmt.Errorf("part file %s differs from the first job's", name)
		}
	}
	return nil
}

// checkCounts decodes word-count part files and compares them with the
// plain-Go reference.
func checkCounts(parts map[string][]byte, want map[string]int) error {
	got := 0
	for name, blob := range parts {
		r := library.NewPaddedReader(blob)
		for r.Next() {
			n, err := strconv.Atoi(string(r.Value()))
			if err != nil {
				return fmt.Errorf("%s: count of %q: %w", name, r.Key(), err)
			}
			if want[string(r.Key())] != n {
				return fmt.Errorf("%s: %q counted %d times, the text has it %d times", name, r.Key(), n, want[string(r.Key())])
			}
			got++
		}
		if err := r.Err(); err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}
	if got != len(want) {
		return fmt.Errorf("output has %d words, the text has %d", got, len(want))
	}
	return nil
}

// firstJobReference returns a check that stores the first job's part
// files and compares every later job's with them byte for byte.
func firstJobReference(fs *dfs.FileSystem, ref *map[string][]byte) func(out string) error {
	return func(out string) error {
		parts, err := readParts(fs, out)
		if err != nil {
			return err
		}
		if *ref == nil {
			*ref = parts
			return nil
		}
		return sameParts(parts, *ref)
	}
}

const (
	wcProducers = 3
	wcReducers  = 4
	wcRuns      = 8 // sorted runs per producer
	wcVocab     = 5000
)

// setupWordcount builds wordcount-spill: three text files, one long-lived
// producer each (the DFS block is larger than a file), four reducers, and
// a per-edge sort budget of an eighth of a producer's output so every
// producer sorts, spills and merges wcRuns runs. No combiner. The library
// sort/spill/merge and the shuffle fetch do nearly all the work.
func setupWordcount(e *env) (instance, error) {
	rec := e.rec
	sp := rec.begin("setup.platform", -1, -1)
	cfg := e.platformConfig(6)
	cfg.DFS.BlockSize = 16 << 20
	plat := platform.New(cfg)
	rec.end(sp)

	sp = rec.begin("setup.data", -1, -1)
	gen := newTextGen(e.seed, wcVocab)
	want := map[string]int{}
	nodes := plat.FS.LiveNodes()
	var paths []string
	var charge int64
	for p := 0; p < wcProducers; p++ {
		path := fmt.Sprintf("/bench/in/words-%d", p)
		c, err := writeText(plat.FS, path, nodes[p%len(nodes)], gen, e.size.wcLines, want)
		if err != nil {
			plat.Stop()
			return nil, err
		}
		charge = c // every file has the same record count; sizes differ by a few bytes
		paths = append(paths, path)
	}
	sortBytes := charge/wcRuns + 1
	rec.end(sp)

	sp = rec.begin("setup.session", -1, -1)
	sess := am.NewSession(plat, am.Config{Name: "wordcount-spill", Timeline: e.journal})
	rec.end(sp)

	// The sort probe replays one producer's shape at a tenth of its size.
	probeGen := newTextGen(e.seed+1, wcVocab)
	probeKeys := make([][]byte, e.size.wcLines*wordsPerLine/10)
	var probeCharge int64
	for i := range probeKeys {
		probeKeys[i] = []byte(probeGen.word())
		probeCharge += int64(len(probeKeys[i])) + 1 + sortChargePerRecord
	}

	var ref map[string][]byte
	records := int64(wcProducers * e.size.wcLines * wordsPerLine)
	j := &dataJobs{
		e: e, name: "wordcount-spill", plat: plat, sess: sess,
		probe: probeShape{
			nodes:     6,
			sortKeys:  probeKeys,
			sortValue: []byte("1"),
			sortBytes: probeCharge/wcRuns + 1,
			parts:     wcReducers,
			// One fetch moves a producer's partition: its output over the reducers.
			fetchBytes: int(charge-records/wcProducers*sortChargePerRecord) / wcReducers,
			fileBytes:  e.size.wcLines * wordsPerLine * 8,
			dfs:        cfg.DFS,
			shuffle:    cfg.Shuffle,
		},
		run: func(out string, parent, no int) (am.DAGResult, time.Duration, int64, error) {
			d := wordcountDAG(fmt.Sprintf("wordcount-spill-%d", no), paths, out, sortBytes)
			rs := rec.begin("job.run", parent, no)
			res, err := sess.Run(d)
			rec.end(rs)
			return res, 0, records, err
		},
		check: firstJobReference(plat.FS, &ref),
		final: func() error {
			if ref == nil {
				return fmt.Errorf("wordcount-spill: no job produced output")
			}
			return checkCounts(ref, want)
		},
	}
	sp = rec.begin("setup.warmup", -1, -1)
	err := j.warmUp()
	rec.end(sp)
	if err != nil {
		j.close()
		return nil, err
	}
	return j, nil
}

func wordcountDAG(name string, paths []string, out string, sortBytes int64) *dag.DAG {
	d := dag.New(name)
	m := d.AddVertex("map", plugin.Desc(library.MapProcessorName, library.FuncConfig{Func: tokenizeFunc}), -1)
	m.Sources = []dag.DataSource{{
		Name:        "text",
		Input:       plugin.Desc(library.DFSSourceInputName, nil),
		Initializer: plugin.Desc(library.SplitInitializerName, library.SplitSourceConfig{Paths: paths}),
	}}
	r := d.AddVertex("reduce", plugin.Desc(library.ReduceProcessorName, library.FuncConfig{Func: countFunc}), wcReducers)
	r.Sinks = []dag.DataSink{{
		Name:      "counts",
		Output:    plugin.Desc(library.DFSSinkOutputName, library.DFSSinkConfig{Path: out}),
		Committer: plugin.Desc(library.DFSCommitterName, library.DFSSinkConfig{Path: out}),
	}}
	d.Connect(m, r, dag.EdgeProperty{
		Movement: dag.ScatterGather,
		Output: plugin.Desc(library.OrderedPartitionedOutputName,
			library.OrderedPartitionedConfig{SortBytes: sortBytes}),
		Input: plugin.Desc(library.OrderedGroupedInputName, nil),
	})
	return d
}
