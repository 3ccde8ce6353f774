package main

import (
	"fmt"
	"runtime"
	"sync"
	"syscall"
	"time"
	"unsafe"
)

// Host-speed calibration.
//
// CPU time keeps steal time out of a measurement but not the rest of a
// shared host's drift. On the virtual machines the benchmark runs on, the
// speed of a CPU moves by 20 to 30% within minutes, in CPU time as much as in
// wall-clock time: other tenants on the hyperthread sibling, in the shared
// last-level cache and on the memory bus. A run of half a minute cannot
// average that out, so ten runs of the same code spread as far.
//
// The benchmark therefore times a fixed reference kernel next to the
// program, on the same thread, between the timed intervals all through a
// run, and reports every time in reference-host units: the measured time
// scaled by calRef over the kernel's median time in the run. The kernel is
// the benchmark's own code, not the repository's, so a change to the
// program moves the scaled times exactly as much as the raw ones; only the
// host's speed at the time is divided out. The kernel mixes the two things
// the simulator's host time goes to: dependent loads over a working set
// larger than the last-level cache, and branchy integer work on a small
// table.

// calRef is the reference kernel's time on the reference host: a scaled
// time is what the interval would have taken on a host where one kernel
// burst takes calRef. It is close to the burst's CPU time on the host the
// benchmark was tuned on, so scaled times there read about as measured.
const calRef = 7 * time.Millisecond

const (
	calRingWords = 4 << 20 // 16 MB of uint32: the pointer-chase ring
	calChase     = 24_000  // dependent loads per burst
	calMix       = 400_000 // xorshift steps per burst
	calBursts    = 3       // bursts per sample
)

// calibrator runs the reference kernel and keeps every burst time it
// measured: bursts run alone, parBursts run on every CPU at once.
type calibrator struct {
	ring      []uint32 // read only, shared by the kernels running at once
	kern      kernel
	bursts    []float64 // ms
	parBursts []float64 // ms
}

// kernel is the state one running kernel updates.
type kernel struct {
	pos   uint32
	x     uint64
	table [1024]uint64
	sink  uint64
}

// newCalibrator builds the kernel's data: one random cycle through the
// whole ring (Sattolo's shuffle), from a fixed seed so every run chases the
// same cycle. The ring lives outside the Go heap, so it neither shows in
// live_heap_mb nor changes when the collector runs.
func newCalibrator() (*calibrator, error) {
	mem, err := syscall.Mmap(-1, 0, 4*calRingWords, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return nil, fmt.Errorf("mapping the calibration ring: %w", err)
	}
	ring := unsafe.Slice((*uint32)(unsafe.Pointer(&mem[0])), calRingWords)
	for i := range ring {
		ring[i] = uint32(i)
	}
	s := uint64(0x9e3779b97f4a7c15)
	for i := len(ring) - 1; i > 0; i-- {
		s = s*6364136223846793005 + 1442695040888963407
		j := int((s >> 33) % uint64(i))
		ring[i], ring[j] = ring[j], ring[i]
	}
	return &calibrator{ring: ring}, nil
}

// burst runs the kernel once on k's state and returns its CPU time on the
// calling thread. The caller must be locked to its thread.
func (c *calibrator) burst(k *kernel) time.Duration {
	t0 := threadCPU()
	p := k.pos
	for i := 0; i < calChase; i++ {
		p = c.ring[p]
	}
	k.pos = p
	x, acc := k.x|1, uint64(p)
	for i := 0; i < calMix; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		switch {
		case x&3 == 0:
			acc += x >> 3
		case x&7 == 1:
			k.table[x&1023] += acc
		default:
			acc ^= x
		}
	}
	k.x, k.sink = x, k.sink+acc
	return threadCPU() - t0
}

// sample measures the host's current speed: it runs calBursts bursts on the
// calling goroutine, locked to its thread, and keeps their times.
func (c *calibrator) sample() {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for i := 0; i < calBursts; i++ {
		c.bursts = append(c.bursts, c.burst(&c.kern).Seconds()*1e3)
	}
}

// sampleParallel measures the host's speed with every CPU busy, for
// intervals in which the program keeps every CPU busy: it runs calBursts
// bursts on GOMAXPROCS threads at once. Two programs on the CPUs of one
// virtual machine slow each other down when the CPUs share a core or a
// cache on the host, and a kernel running alone does not see that.
func (c *calibrator) sampleParallel() {
	n := runtime.GOMAXPROCS(0)
	ms := make([][]float64, n)
	var wg sync.WaitGroup
	for g := 0; g < n; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			runtime.LockOSThread()
			defer runtime.UnlockOSThread()
			k := &kernel{pos: uint32(g) * (calRingWords / 16)}
			for i := 0; i < calBursts; i++ {
				ms[g] = append(ms[g], c.burst(k).Seconds()*1e3)
			}
		}()
	}
	wg.Wait()
	for _, m := range ms {
		c.parBursts = append(c.parBursts, m...)
	}
}

// parallelFactor is factor for intervals that keep every CPU busy: calRef
// over the median of the run's parallel bursts.
func (c *calibrator) parallelFactor() float64 {
	return calRef.Seconds() * 1e3 / median(c.parBursts)
}

// medianBurstMs is the median burst time of the run so far.
func (c *calibrator) medianBurstMs() float64 { return median(c.bursts) }

// factor turns a time measured during the run into reference-host time:
// calRef over the median of every burst of the run. One factor for the
// whole run, not one per interval: over a second or less the host's speed
// jitters by 15% in ways a burst next to an interval does not share with
// it, while over the whole run the kernel follows the drift that moves the
// program's times.
func (c *calibrator) factor() float64 { return calRef.Seconds() * 1e3 / c.medianBurstMs() }
