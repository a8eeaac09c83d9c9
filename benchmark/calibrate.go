package main

import (
	"bytes"
	"math/rand"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Calibration. On a shared two-core box the neighbours come and go in
// bursts of a few seconds and move the wall-clock *and* the CPU time of
// identical work by 25–35 %, far more than any bound worth gating on. So
// the benchmark times a fixed kernel of its own — shaped like the data
// plane: a pointer sort over a byte arena, then a hashing pass in sorted
// order — right next to the work it measures, and reports times as they
// would read on a machine where that kernel takes calRefMs:
//
//	reported = measured × calRefMs ÷ kernel duration measured beside it
//
// Closed-loop workloads run the kernel between jobs, when the machine is
// otherwise idle, and scale each job by the samples on either side of it.
// The open loop cannot stop, so a sampler goroutine runs the kernel every
// calPeriod beside it (under 2 % of the two cores) and each DAG is scaled
// by the median sample within calSmooth of its due time. Both commits of a comparison are
// scaled by the same unchanged kernel; allocation and counts are not
// scaled. Raw medians are printed beside the calibrated ones.
const (
	calRecords = 1 << 14
	calKeyLen  = 24
	calRefMs   = 4.0 // the kernel's duration on the machine this was written on, when calm
	calPeriod  = 200 * time.Millisecond
	calSmooth  = time.Second
)

var calArena, calOrder = func() ([]byte, []uint32) {
	rng := rand.New(rand.NewSource(42))
	arena := make([]byte, calRecords*calKeyLen)
	for i := range arena {
		arena[i] = byte('a' + rng.Intn(4)) // long common prefixes, as word keys have
	}
	order := make([]uint32, calRecords)
	for i := range order {
		order[i] = uint32(i)
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	return arena, order
}()

// calSink keeps the kernel's result alive so the work is not optimised
// away.
var calSink atomic.Uint64

// calSample is one timed run of the kernel.
type calSample struct {
	at time.Time
	ms float64
}

// calibrator owns the kernel's scratch space; one per goroutine.
type calibrator struct{ scratch []uint32 }

func newCalibrator() *calibrator { return &calibrator{scratch: make([]uint32, calRecords)} }

// sample times the kernel once on the calling goroutine.
func (c *calibrator) sample() calSample {
	start := time.Now()
	copy(c.scratch, calOrder)
	key := func(r uint32) []byte { return calArena[int(r)*calKeyLen : int(r+1)*calKeyLen] }
	slices.SortFunc(c.scratch, func(a, b uint32) int { return bytes.Compare(key(a), key(b)) })
	var h uint64 = 14695981039346656037
	for _, r := range c.scratch {
		for _, b := range key(r) {
			h = (h ^ uint64(b)) * 1099511628211
		}
	}
	ms := float64(time.Since(start)) / 1e6
	calSink.Store(h)
	return calSample{at: start, ms: ms}
}

// bothCores times the kernel on two goroutines at once and returns the
// mean: a job uses both cores, and a neighbour that takes one of them
// slows a job more than it slows one thread that can move to the other.
type bothCores [2]*calibrator

func newBothCores() bothCores { return bothCores{newCalibrator(), newCalibrator()} }

func (b bothCores) sample() float64 {
	var ms [2]float64
	var wg sync.WaitGroup
	for i, c := range b {
		wg.Add(1)
		go func() {
			defer wg.Done()
			ms[i] = c.sample().ms
		}()
	}
	wg.Wait()
	return (ms[0] + ms[1]) / 2
}

// calFactor turns a kernel duration into the scale applied to times measured
// beside it.
func calFactor(kernelMs float64) float64 { return calRefMs / kernelMs }

// calSeries is the open loop's samples in time order.
type calSeries []calSample

// kernelAt is the median kernel duration of the samples within calSmooth
// of t (the nearest three when fewer are that close): one sample beside a
// busy program is noisy, the neighbours' bursts last seconds.
func (s calSeries) kernelAt(t time.Time) float64 {
	lo := sort.Search(len(s), func(i int) bool { return !s[i].at.Before(t.Add(-calSmooth)) })
	hi := sort.Search(len(s), func(i int) bool { return s[i].at.After(t.Add(calSmooth)) })
	for hi-lo < 3 && (lo > 0 || hi < len(s)) {
		if lo > 0 {
			lo--
		}
		if hi < len(s) {
			hi++
		}
	}
	near := make([]float64, 0, hi-lo)
	for _, c := range s[lo:hi] {
		near = append(near, c.ms)
	}
	return median(near)
}

// sampler runs the kernel every calPeriod until stop is closed and hands
// back what it saw, first sample taken before it returns control.
type sampler struct {
	stop chan struct{}
	done chan struct{}
	out  calSeries
}

func startSampler() *sampler {
	s := &sampler{stop: make(chan struct{}), done: make(chan struct{})}
	c := newCalibrator()
	s.out = append(s.out, c.sample())
	go func() {
		defer close(s.done)
		tick := time.NewTicker(calPeriod)
		defer tick.Stop()
		for {
			select {
			case <-s.stop:
				s.out = append(s.out, c.sample())
				return
			case <-tick.C:
				s.out = append(s.out, c.sample())
			}
		}
	}()
	return s
}

// finish stops the sampler, waits for it and returns its samples (at
// least two: one before the window, one after).
func (s *sampler) finish() calSeries {
	close(s.stop)
	<-s.done
	return s.out
}
