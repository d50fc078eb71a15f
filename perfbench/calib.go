package main

import (
	"runtime"
	"syscall"
	"time"
	"unsafe"
)

// The host's CPU speed drifts: on the shared 2-vCPU VM where the bounds
// were set, a fixed compute loop's per-second median ranged from 6.5 to
// 13 ms within one minute, far more than steal explains. Every time the
// benchmark reports is therefore scaled to a reference speed, measured
// by a fixed calibration loop that runs between ops of the same run.

const (
	// calRefMs is the reference speed: a time is reported as it would
	// read on a host where one calibration loop takes this much CPU.
	calRefMs = 1.5
	// calSteps is the length of one calibration loop.
	calSteps = 240000
	// calEvery is the least wall time between two calibration samples
	// of a timed region, so short ops do not pay for one each.
	calEvery = 100 * time.Millisecond
	// calPerSetup samples are taken after each set-up round.
	calPerSetup = 5
)

// calTable is a single cycle through its slots, built
// deterministically by initCalibration. At 256 KiB it fits the core's
// L2 cache, and each sample runs a quarter of the loop untimed first,
// so a sample does not depend on what the op before it left in the
// caches. It lies outside the Go heap, so it changes neither the
// live heap nor GC work.
var calTable [1 << 16]uint32

var calSink uint64

func initCalibration() {
	for i := range calTable {
		calTable[i] = uint32(i)
	}
	x := uint64(88172645463325252)
	for i := len(calTable) - 1; i > 0; i-- { // Sattolo's shuffle: one cycle
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		calTable[i], calTable[j] = calTable[j], calTable[i]
	}
}

// calibrate runs the calibration loop once and returns the CPU time
// its thread spent, in ms. The loop mixes a dependent walk of
// calTable with hashing and independent loads into it, and allocates
// nothing. Thread CPU time leaves out steal and time spent waiting to
// run.
func calibrate() float64 {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	calLoop(calSteps / 4)
	t0 := threadCPU()
	calLoop(calSteps)
	return ms(threadCPU() - t0)
}

func calLoop(steps int) {
	var s uint64
	i := uint32(0)
	x := uint64(1)
	for range steps {
		i = calTable[i]
		x = x*6364136223846793005 + 1442695040888963407
		h := x ^ x>>29
		h *= 0xbf58476d1ce4e5b9
		s += h ^ h>>31 + uint64(calTable[h&(1<<16-1)])
	}
	calSink += s + uint64(i)
}

// threadCPU is the calling thread's CPU time (CLOCK_THREAD_CPUTIME_ID).
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0) //nolint:errcheck // cannot fail for this clock
	return time.Duration(ts.Nano())
}

// speedScale is the factor that brings a time measured alongside the
// given calibration samples to the reference speed (1 without samples).
func speedScale(samples []float64) float64 {
	if m := median(samples); m > 0 {
		return calRefMs / m
	}
	return 1
}
