package main

import (
	"runtime"
	"slices"
	"syscall"
	"time"
)

// quantile returns the nearest-rank q-quantile of samples, sorting them
// in place.
func quantile(samples []time.Duration, q float64) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	slices.Sort(samples)
	i := int(q*float64(len(samples)) + 0.5)
	if i >= len(samples) {
		i = len(samples) - 1
	}
	return samples[i]
}

// median returns the median of xs (mean of the middle pair for even
// counts) without reordering the caller's slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// timeSetup runs build n times and returns the median wall time in
// seconds, so one slow build (cold page cache, GC) does not move setup_s;
// the last build's state is what the run measures.
func timeSetup(n int, build func() error) (float64, error) {
	var secs []float64
	for i := 0; i < n; i++ {
		runtime.GC()
		t0 := time.Now()
		if err := build(); err != nil {
			return 0, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	return median(secs), nil
}

// retainedMiB reports the live heap the system under test holds: the
// live heap after a forced GC with the system reachable, minus the live
// heap after release drops it. keep holds the benchmark's own inputs and
// buffers; they stay reachable through both readings so they cancel out
// instead of being counted when they happen to die in between.
func retainedMiB(release func(), keep ...any) float64 {
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	with := ms.HeapAlloc
	release()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	runtime.KeepAlive(keep)
	return (float64(with) - float64(ms.HeapAlloc)) / (1 << 20)
}

// cpuTime reads the process's CPU time (user + system, all threads).
// Unlike wall time it leaves out the time the host steals from this
// machine, which on a shared host swings a closed loop's throughput far
// more than any change to the program does.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(err) // RUSAGE_SELF with a valid pointer cannot fail
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mallocs reads the cumulative heap allocation count.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}
