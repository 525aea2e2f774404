package main

import (
	"math"
	"runtime"
	"sort"
	"sync"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks. It sorts xs in place; an empty slice yields NaN.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	frac := pos - float64(lo)
	return xs[lo]*(1-frac) + xs[lo+1]*frac
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// meanOfQuantiles is the mean over sample sets of each set's q-quantile.
// A round holds one call of each collective, and their latencies differ
// by orders of magnitude, so a quantile of the pooled samples would sit
// on the boundary between two collectives and jump between them from run
// to run. Giving each collective its own quantile keeps the figure steady.
func meanOfQuantiles(sets [][]float64, q float64) float64 {
	var sum float64
	n := 0
	for _, xs := range sets {
		if len(xs) == 0 {
			continue
		}
		sum += quantile(xs, q)
		n++
	}
	if n == 0 {
		return math.NaN()
	}
	return sum / float64(n)
}

// parallelFor runs f(0..n-1) on GOMAXPROCS goroutines and waits for them.
func parallelFor(n int, f func(i int)) {
	workers := runtime.GOMAXPROCS(0)
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
}

// memDelta is the allocation and GC activity between two MemStats reads.
type memDelta struct {
	mallocs, bytes, gcs uint64
	pauseNs             uint64
}

func readMem() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

func diffMem(a, b runtime.MemStats) memDelta {
	return memDelta{
		mallocs: b.Mallocs - a.Mallocs,
		bytes:   b.TotalAlloc - a.TotalAlloc,
		gcs:     uint64(b.NumGC - a.NumGC),
		pauseNs: b.PauseTotalNs - a.PauseTotalNs,
	}
}

// liveHeapMB is the live heap after a full collection, less the bytes the
// benchmark itself holds as payload buffers.
func liveHeapMB(own int) float64 {
	runtime.GC()
	ms := readMem()
	return (float64(ms.HeapAlloc) - float64(own)) / 1e6
}
