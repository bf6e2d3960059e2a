package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"syscall"
	"time"
)

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Runtime counters read through runtime/metrics, which does not stop the
// world.
const (
	mAllocs   = "/gc/heap/allocs:objects"
	mGCCycles = "/gc/cycles/total:gc-cycles"
	mGCCPU    = "/cpu/classes/gc/total:cpu-seconds"
	mAllCPU   = "/cpu/classes/total:cpu-seconds"
	mHeap     = "/memory/classes/heap/objects:bytes"
	mLive     = "/gc/heap/live:bytes"
)

// rtSnap is a snapshot of the process counters a phase is measured by.
type rtSnap struct {
	wall     time.Time
	cpu      time.Duration
	allocs   uint64
	gcCycles uint64
	gcCPU    float64
	allCPU   float64
}

func snapshot() rtSnap {
	s := []metrics.Sample{{Name: mAllocs}, {Name: mGCCycles}, {Name: mGCCPU}, {Name: mAllCPU}}
	metrics.Read(s)
	return rtSnap{
		wall:     time.Now(),
		cpu:      cpuTime(),
		allocs:   s[0].Value.Uint64(),
		gcCycles: s[1].Value.Uint64(),
		gcCPU:    s[2].Value.Float64(),
		allCPU:   s[3].Value.Float64(),
	}
}

// usage is the difference between two snapshots.
type usage struct {
	wall     time.Duration
	cpu      time.Duration
	allocs   uint64
	gcCycles uint64
	gcCPU    float64
	allCPU   float64
}

func since(a rtSnap) usage {
	b := snapshot()
	return usage{
		wall:     b.wall.Sub(a.wall),
		cpu:      b.cpu - a.cpu,
		allocs:   b.allocs - a.allocs,
		gcCycles: b.gcCycles - a.gcCycles,
		gcCPU:    b.gcCPU - a.gcCPU,
		allCPU:   b.allCPU - a.allCPU,
	}
}

func (u *usage) add(o usage) {
	u.wall += o.wall
	u.cpu += o.cpu
	u.allocs += o.allocs
	u.gcCycles += o.gcCycles
	u.gcCPU += o.gcCPU
	u.allCPU += o.allCPU
}

// gcFrac is the share of the process's CPU time the garbage collector used.
func (u usage) gcFrac() float64 {
	if u.allCPU <= 0 {
		return 0
	}
	return u.gcCPU / u.allCPU
}

// heapPeak samples the heap in use every few milliseconds and keeps the
// maximum, since the runtime records no high-water mark.
type heapPeak struct {
	stop   chan struct{}
	wg     sync.WaitGroup
	mu     sync.Mutex
	max    uint64
	paused bool
	once   sync.Once
}

// pause stops (or, with false, resumes) counting samples toward the peak,
// for phases that are not part of the workload: capacity probes past the
// knee, and the garbage they leave until the next collection.
func (h *heapPeak) pause(p bool) {
	h.mu.Lock()
	h.paused = p
	h.mu.Unlock()
}

func startHeapPeak() *heapPeak {
	h := &heapPeak{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		s := []metrics.Sample{{Name: mHeap}}
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			metrics.Read(s)
			h.mu.Lock()
			if v := s[0].Value.Uint64(); v > h.max && !h.paused {
				h.max = v
			}
			h.mu.Unlock()
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// finish stops the sampler, waits for it, and returns the peak in MB.
func (h *heapPeak) finish() float64 {
	h.once.Do(func() { close(h.stop) })
	h.wg.Wait()
	return float64(h.max) / (1 << 20)
}

// settle collects garbage so that one phase's leftovers do not count
// against the next.
func settle() { runtime.GC() }

// retainedMB collects garbage and returns the heap still live, in MB.
func retainedMB() float64 {
	runtime.GC()
	s := []metrics.Sample{{Name: mLive}}
	metrics.Read(s)
	return float64(s[0].Value.Uint64()) / (1 << 20)
}

// quantile returns the nearest-rank q-quantile of xs (sorted in place).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// durQuantile is quantile over durations, in microseconds.
func durQuantile(ds []time.Duration, q float64) float64 {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(time.Microsecond)
	}
	return quantile(xs, q)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
