package main

import (
	"fmt"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
	"unsafe"
)

// Long intervals are timed in CPU time, not wall-clock time. The benchmark
// runs on shared virtual machines whose CPUs the hypervisor deschedules at
// random (steal time, a quarter of the time and more when the host is
// busy). That stretches wall-clock time by as much, while the CPU time the
// program itself used stays put. Short intervals (set-ups, requests) are
// timed wall-clock. Either way the time is then scaled to reference-host
// time (see calib.go).
//
// The CPU clocks are clock_gettime's per-thread and per-process clocks,
// which are exact. getrusage's figures are not: under steal they advance in
// scheduler-tick steps of 4 ms.

const (
	clockProcessCPU = 2 // CLOCK_PROCESS_CPUTIME_ID
	clockThreadCPU  = 3 // CLOCK_THREAD_CPUTIME_ID
)

// threadCPU returns the CPU time of the calling OS thread. The caller must
// be locked to its thread (runtime.LockOSThread).
func threadCPU() time.Duration { t, _ := cpuClock(clockThreadCPU); return t }

// processCPU returns the CPU time of the whole process.
func processCPU() time.Duration { t, _ := cpuClock(clockProcessCPU); return t }

func cpuClock(id uintptr) (time.Duration, error) {
	var ts syscall.Timespec
	_, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0)
	if errno != 0 {
		return 0, errno
	}
	return time.Duration(ts.Nano()), nil
}

// checkClocks reports whether the CPU clocks are readable here; they are
// read with a Linux system call.
func checkClocks() error {
	for _, id := range []uintptr{clockProcessCPU, clockThreadCPU} {
		if _, err := cpuClock(id); err != nil {
			return fmt.Errorf("reading CPU time (clock_gettime %d): %w", id, err)
		}
	}
	return nil
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks. xs need not be sorted; it is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

// mean returns the arithmetic mean of xs, or 0 for none.
func mean(xs []float64) float64 { return ratio(sum(xs), float64(len(xs))) }

// ratio returns num/den, or 0 when den is 0 (a layer that did no work).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// heapWatch records the live heap that each garbage collection leaves
// behind, polling the runtime's metrics every few milliseconds.
type heapWatch struct {
	stop, done chan struct{}
	live       []float64 // MB, one entry per completed collection
}

func watchHeap() *heapWatch {
	h := &heapWatch{stop: make(chan struct{}), done: make(chan struct{})}
	s := []metrics.Sample{{Name: "/gc/cycles/total:gc-cycles"}, {Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	last := s[0].Value.Uint64()
	go func() {
		defer close(h.done)
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
			}
			metrics.Read(s)
			if n := s[0].Value.Uint64(); n != last {
				last = n
				h.live = append(h.live, float64(s[1].Value.Uint64())/(1<<20))
			}
		}
	}()
	return h
}

// stopMB stops the watcher, waits for it to exit and returns the median
// live heap over the collections it saw. The median, not the peak: retired
// micro-ops stay reachable through stale producer pointers into the
// never-recycled DynUop slabs, so the largest live heap swings twofold
// between identical runs while the median holds steady.
func (h *heapWatch) stopMB() float64 {
	close(h.stop)
	<-h.done
	return median(h.live)
}

// runtimeUse is a reading of the Go runtime's allocation and CPU counters.
type runtimeUse struct {
	allocBytes, allocObjects float64
	// gcCPU and usedCPU are the runtime's estimates of CPU time spent in
	// the garbage collector and in total (GOMAXPROCS time minus idle).
	gcCPU, usedCPU float64
}

var runtimeUseNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readRuntimeUse() runtimeUse {
	s := make([]metrics.Sample, len(runtimeUseNames))
	for i, n := range runtimeUseNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(v metrics.Value) float64 {
		if v.Kind() == metrics.KindFloat64 {
			return v.Float64()
		}
		return float64(v.Uint64())
	}
	return runtimeUse{
		allocBytes: val(s[0].Value), allocObjects: val(s[1].Value),
		gcCPU: val(s[2].Value), usedCPU: val(s[3].Value) - val(s[4].Value),
	}
}

func (a runtimeUse) sub(b runtimeUse) runtimeUse {
	return runtimeUse{
		allocBytes: a.allocBytes - b.allocBytes, allocObjects: a.allocObjects - b.allocObjects,
		gcCPU: a.gcCPU - b.gcCPU, usedCPU: a.usedCPU - b.usedCPU,
	}
}

func (a runtimeUse) add(b runtimeUse) runtimeUse {
	return runtimeUse{
		allocBytes: a.allocBytes + b.allocBytes, allocObjects: a.allocObjects + b.allocObjects,
		gcCPU: a.gcCPU + b.gcCPU, usedCPU: a.usedCPU + b.usedCPU,
	}
}
