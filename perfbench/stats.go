package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/metrics"
	"slices"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// epoch anchors every timestamp the benchmark records; now is monotonic
// nanoseconds since it, so spans from all goroutines share one axis.
var epoch = time.Now()

func now() int64 { return int64(time.Since(epoch)) }

// quantile returns the nearest-rank q-quantile of xs (0 for no samples).
// xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	return xs[max(0, min(i, len(xs)-1))]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// ratio returns a/b, or 0 when b is 0 (nothing happened to divide by).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// perKop scales a count to events per thousand completed operations.
func perKop(count, ops int64) float64 { return ratio(float64(count)*1000, float64(ops)) }

// runtimeSample is a reading of the Go runtime's allocation and GC
// counters, taken at the edges of a measured window.
type runtimeSample struct {
	mem             runtime.MemStats
	cpu             time.Duration // process user + system time
	gcCPU, totalCPU float64
}

func sampleRuntime() (runtimeSample, error) {
	var s runtimeSample
	runtime.ReadMemStats(&s.mem)
	m := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(m)
	if m[0].Value.Kind() == metrics.KindFloat64 {
		s.gcCPU = m[0].Value.Float64()
	}
	if m[1].Value.Kind() == metrics.KindFloat64 {
		s.totalCPU = m[1].Value.Float64()
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return s, fmt.Errorf("process CPU time: %w", err)
	}
	s.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return s, nil
}

// runtimeDelta summarizes allocation and GC between two samples.
type runtimeDelta struct {
	cpu        time.Duration
	allocBytes uint64
	gcCycles   uint32
	gcCPUFrac  float64
	// pausesUs are the stop-the-world pauses of the window's GC cycles
	// (the most recent 256 when there were more).
	pausesUs []float64
}

func between(a, b runtimeSample) runtimeDelta {
	d := runtimeDelta{
		cpu:        b.cpu - a.cpu,
		allocBytes: b.mem.TotalAlloc - a.mem.TotalAlloc,
		gcCycles:   b.mem.NumGC - a.mem.NumGC,
		gcCPUFrac:  ratio(b.gcCPU-a.gcCPU, b.totalCPU-a.totalCPU),
	}
	n := min(d.gcCycles, uint32(len(b.mem.PauseNs)))
	for k := uint32(0); k < n; k++ {
		cycle := b.mem.NumGC - k // 1-based GC number
		d.pausesUs = append(d.pausesUs, float64(b.mem.PauseNs[(cycle+255)%256])/1e3)
	}
	return d
}

// windowSlices is how many equal slices a measured window is cut into.
// Latency and memory are summarized per slice and reported as the median
// across slices, so one disturbed second on a shared host does not decide
// a run.
const windowSlices = 10

// minSliceOps is the fewest operations a latency slice should hold, so that
// its p99 has a hundred samples beyond it. The closed loop's rate gives
// every slice many more.
const minSliceOps = 10000

// sliceOf returns which of n equal slices an event at t falls in, for a
// window that opened at t0 and is length long; events after the window land
// in the last slice.
func sliceOf(t, t0 int64, length time.Duration, n int) int {
	i := int((t - t0) / max(length.Nanoseconds()/int64(n), 1))
	return max(0, min(i, n-1))
}

// sliceQuantile is the median across slices of each slice's q-quantile.
func sliceQuantile(groups [][]float64, q float64) float64 {
	var per []float64
	for _, g := range groups {
		if len(g) > 0 {
			per = append(per, quantile(g, q))
		}
	}
	return median(per)
}

// histogram counts latencies in µs in fixed memory: 64 log-linear buckets
// per power of two from 1 µs, so a quantile is within about 1.6% of the
// exact value. Recording into it allocates nothing, so collecting
// latencies does not grow the heap and shift the garbage collector's pace
// during a window.
type histogram struct {
	counts [40 * subBuckets]uint32
	n      uint64
}

const subBuckets = 64

func (h *histogram) add(us float64) {
	i := 0
	if us >= 1 {
		frac, exp := math.Frexp(us) // us = frac × 2^exp, frac in [0.5, 1)
		i = (exp-1)*subBuckets + int((2*frac-1)*subBuckets)
	}
	h.counts[min(i, len(h.counts)-1)]++
	h.n++
}

func (h *histogram) merge(o *histogram) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the nearest-rank q-quantile, interpolated within its
// bucket (0 for an empty histogram).
func (h *histogram) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := max(1, uint64(math.Ceil(q*float64(h.n))))
	var seen uint64
	for i, c := range h.counts {
		if c == 0 || seen+uint64(c) < rank {
			seen += uint64(c)
			continue
		}
		e, f := i/subBuckets, i%subBuckets
		low := math.Ldexp(1+float64(f)/subBuckets, e)
		width := math.Ldexp(1.0/subBuckets, e)
		return low + width*(float64(rank-seen)-0.5)/float64(c)
	}
	return 0
}

// sliceHistQuantile is the median across slices of each slice's q-quantile.
func sliceHistQuantile(hs []histogram, q float64) float64 {
	var per []float64
	for i := range hs {
		if hs[i].n > 0 {
			per = append(per, hs[i].quantile(q))
		}
	}
	return median(per)
}

// rssSampler records the largest resident set size seen in each slice of a
// window, sampling /proc/self/statm.
type rssSampler struct {
	stop, done chan struct{}
	peaks      [windowSlices]float64
	err        error
}

func startRSS(length time.Duration) *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	t0 := now()
	go func() {
		defer close(s.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			mb, err := residentMB()
			if err != nil {
				s.err = err
				return
			}
			i := sliceOf(now(), t0, length, windowSlices)
			s.peaks[i] = max(s.peaks[i], mb)
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the median of the slice peaks in MiB.
func (s *rssSampler) finish() (float64, error) {
	close(s.stop)
	<-s.done
	if s.err != nil {
		return 0, s.err
	}
	var peaks []float64
	for _, p := range s.peaks {
		if p > 0 {
			peaks = append(peaks, p)
		}
	}
	return median(peaks), nil
}

// residentMB reads the process's current resident set size in MiB.
func residentMB() (float64, error) {
	buf, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0, fmt.Errorf("resident memory: %w", err)
	}
	f := strings.Fields(string(buf))
	if len(f) < 2 {
		return 0, fmt.Errorf("resident memory: malformed /proc/self/statm")
	}
	pages, err := strconv.ParseFloat(f[1], 64)
	if err != nil {
		return 0, fmt.Errorf("resident memory: %w", err)
	}
	return pages * float64(os.Getpagesize()) / (1 << 20), nil
}
