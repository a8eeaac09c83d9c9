// Package bench regenerates the paper's evaluation (§6, Figures 8–13) on
// the simulated cluster, plus ablation experiments for the design choices
// the paper credits (container reuse, sessions, auto parallelism, dynamic
// partition pruning, locality, speculation, slow start, the shared object
// registry) and two scale experiments nothing else covers. Every
// experiment is one row of the Experiments table and prints one Report;
// numbers compared from commit to commit belong to benchmark/, not here.
// Each runner builds a fresh platform with realistic simulated
// overheads (platform.Default), generates synthetic data at the requested
// scale, runs the Tez and baseline variants, and reports the same rows or
// series the paper's figure shows. Absolute numbers are simulation-scale;
// the shape — who wins, by roughly what factor — is the reproduction
// target.
package bench

import (
	"fmt"
	"strings"
	"time"
)

// Scale sizes an experiment run.
type Scale struct {
	Name string

	TPCDSSales int // fact rows (Figure 8)
	TPCHOrders int // orders (Figure 9; lineitem ≈ 4×)
	NodesF8    int
	NodesF9    int

	PigRows int // per-input rows for the ETL mix (Figure 10)

	KMeansPoints int
	KMeansIters  []int // Figure 11's 10/50/100 series

	SparkUsers    int
	SparkRows     int   // base dataset rows (Figure 12)
	SparkScales   []int // multipliers standing in for 100GB..1TB (Figure 13)
	SparkExecs    int   // service executors requested per user
	SparkClusterN int
}

// Small finishes in seconds — the default for `go test -bench`.
var Small = Scale{
	Name:       "small",
	TPCDSSales: 4000, TPCHOrders: 800,
	NodesF8: 8, NodesF9: 16,
	PigRows:      3000,
	KMeansPoints: 2000, KMeansIters: []int{2, 5, 10},
	SparkUsers: 5, SparkRows: 4000, SparkScales: []int{1, 2, 4},
	SparkExecs: 6, SparkClusterN: 4, // 16 slots vs 30 requested
}

// Full mirrors the paper's parameters more closely (minutes of wall time).
var Full = Scale{
	Name:       "full",
	TPCDSSales: 40000, TPCHOrders: 6000,
	NodesF8: 20, NodesF9: 48,
	PigRows:      20000,
	KMeansPoints: 10000, KMeansIters: []int{10, 50, 100},
	SparkUsers: 5, SparkRows: 8000, SparkScales: []int{1, 2, 4, 8},
	SparkExecs: 8, SparkClusterN: 7, // 28 slots vs 40 requested
}

// Report is one regenerated table or series.
type Report struct {
	Figure  string
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (r *Report) AddRow(cells ...string) { r.Rows = append(r.Rows, cells) }

// String renders an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "=== %s — %s ===\n", r.Figure, r.Title)
	widths := make([]int, len(r.Headers))
	for i, h := range r.Headers {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s  ", widths[i], c)
			} else {
				b.WriteString(c + "  ")
			}
		}
		b.WriteString("\n")
	}
	line(r.Headers)
	sep := make([]string, len(r.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

func ms(d time.Duration) string {
	return fmt.Sprintf("%.1f", float64(d.Microseconds())/1000)
}

func speedup(base, tez time.Duration) string {
	if tez <= 0 {
		return "-"
	}
	return fmt.Sprintf("%.2fx", float64(base)/float64(tez))
}
