package main

import (
	"math/rand"
	"sync"
	"time"
)

// The reference host is two vCPUs of a shared machine. Its speed drifts:
// the same deterministic simulation takes anything from 12 to 27 ms from one
// iteration to the next, and a slow stretch can last longer than a whole
// run. So every end-to-end duration is converted to reference-host seconds:
// it is multiplied by refNominal / r, where r is the time a fixed kernel
// takes right before and right after the measured part of a pass, on as
// many threads as the workload keeps busy. The kernel is the benchmark's
// own code, so no change to the program can alter it. On a host of steady
// speed, the conversion is a constant factor.

// refNominal is the kernel time that counts as reference speed.
const refNominal = 10 * time.Millisecond

// refTable is the kernel's working set: 2 MiB of random words.
var refTable = func() []uint32 {
	t := make([]uint32, 1<<19)
	r := rand.New(rand.NewSource(1))
	for i := range t {
		t[i] = r.Uint32()
	}
	return t
}()

// refSink keeps the kernel's result alive.
var refSink uint64

// refKernel is dependent loads over refTable mixed with data-dependent
// branches and multiplies, the kind of work the simulator does.
func refKernel() uint64 {
	x := uint32(1)
	var acc uint64
	for i := 0; i < 500_000; i++ {
		x = refTable[x&(uint32(len(refTable))-1)] ^ uint32(i)
		if x&7 == 3 {
			acc += uint64(x) * 2654435761
		} else {
			acc ^= uint64(x) << 3
		}
	}
	return acc
}

// refTime runs the kernel on `threads` goroutines at once and returns the
// wall time of the slowest.
func refTime(threads int) time.Duration {
	sums := make([]uint64, threads)
	t0 := time.Now()
	var wg sync.WaitGroup
	for k := range sums {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			sums[k] = refKernel()
		}(k)
	}
	wg.Wait()
	d := time.Since(t0)
	refSink += sums[0]
	return d
}

// Which part of a pass a lap belongs to.
const (
	untimed = iota // bookkeeping between timed parts
	setupPart
	timedPart
)

// passClock times the parts of one pass. Every lap ends with a kernel run,
// and the lap's wall and CPU time are converted by the mean of the kernel
// times at its two ends, so the conversion follows the host's speed through
// the pass. A nil *passClock does nothing.
type passClock struct {
	threads int
	ref     time.Duration // kernel time at the start of the current lap
	w0      time.Time
	c0      time.Duration

	wall, cpu, setup float64 // converted seconds per part
	rawWall          float64 // unconverted wall of the timed part
}

// newPassClock runs the kernel and starts the first lap.
func newPassClock(threads int) *passClock {
	p := &passClock{threads: threads, ref: refTime(threads)}
	p.w0, p.c0 = time.Now(), cpuTime()
	return p
}

// lap ends the current lap, adds it to part, runs the kernel and starts the
// next lap.
func (p *passClock) lap(part int) {
	if p == nil {
		return
	}
	wall, cpu := time.Since(p.w0).Seconds(), (cpuTime() - p.c0).Seconds()
	r := refTime(p.threads)
	k := float64(refNominal) / float64((p.ref+r)/2)
	p.ref = r
	switch part {
	case setupPart:
		p.setup += wall * k
	case timedPart:
		p.wall += wall * k
		p.cpu += cpu * k
		p.rawWall += wall
	}
	p.w0, p.c0 = time.Now(), cpuTime()
}
