package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// benchmarkFile is the part of BENCHMARK.json -compare needs.
type benchmarkFile struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runSet is the untraced runs of one --out file, by workload.
type runSet map[string][]runRecord

func readRuns(path string) (runSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := runSet{}
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<20)
	for line := 1; sc.Scan(); line++ {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r runRecord
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if !r.Trace {
			set[r.Workload] = append(set[r.Workload], r)
		}
	}
	return set, sc.Err()
}

func (s runSet) values(workload, metric string) []float64 {
	var xs []float64
	for _, r := range s[workload] {
		if m, ok := r.Metrics[metric]; ok {
			xs = append(xs, m.Value)
		}
	}
	return xs
}

func (s runSet) failedShare(workload string) float64 {
	var attempted, failed int
	for _, r := range s[workload] {
		attempted += r.Attempted
		failed += r.Failed
	}
	return ratio(float64(failed), float64(attempted))
}

// compareFiles prints, per workload and end-to-end metric, both medians,
// how much worse the new one is, and the bound BENCHMARK.json fixes. A
// pairing whose runs spread wider than the bound on either side is
// unresolved, not unchanged. It reports whether anything regressed: a
// resolved metric worse by more than its bound, or a larger share of
// failed jobs.
func compareFiles(w io.Writer, benchmarkJSON, oldPath, newPath string) (regressed bool, err error) {
	blob, err := os.ReadFile(benchmarkJSON)
	if err != nil {
		return false, err
	}
	var bf benchmarkFile
	if err := json.Unmarshal(blob, &bf); err != nil {
		return false, fmt.Errorf("%s: %w", benchmarkJSON, err)
	}
	older, err := readRuns(oldPath)
	if err != nil {
		return false, err
	}
	newer, err := readRuns(newPath)
	if err != nil {
		return false, err
	}

	fmt.Fprintf(w, "%-16s %-14s %12s %12s %9s %7s  %s\n", "workload", "metric", "old median", "new median", "worse by", "bound", "verdict")
	for _, wld := range workloads {
		wl := wld.name
		if len(older[wl]) == 0 || len(newer[wl]) == 0 {
			continue
		}
		for _, m := range bf.EndToEnd {
			a, b := older.values(wl, m.Name), newer.values(wl, m.Name)
			ma, mb := median(a), median(b)
			worse := ratio(mb-ma, ma)
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case iqrShare(a) > m.Bound || iqrShare(b) > m.Bound:
				verdict = fmt.Sprintf("unresolved (spread %.1f%% / %.1f%%)", 100*iqrShare(a), 100*iqrShare(b))
			case worse > m.Bound:
				verdict = "REGRESSION"
				regressed = true
			case worse < -m.Bound:
				verdict = "better"
			}
			fmt.Fprintf(w, "%-16s %-14s %12.4f %12.4f %+8.1f%% %6.0f%%  %s (n %d / %d)\n",
				wl, m.Name, ma, mb, 100*worse, 100*m.Bound, verdict, len(a), len(b))
		}
		fa, fb := older.failedShare(wl), newer.failedShare(wl)
		verdict := "ok"
		if fb > fa {
			verdict = "REGRESSION"
			regressed = true
		}
		fmt.Fprintf(w, "%-16s %-14s %12.4f %12.4f %9s %7s  %s\n", wl, "failed share", fa, fb, "", "0%", verdict)
	}
	return regressed, nil
}
