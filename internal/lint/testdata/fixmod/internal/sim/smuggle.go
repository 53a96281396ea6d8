package sim

import (
	"sync"        // want `sync imported in sim-core`
	"sync/atomic" // process-wide totals: legal
)

var runs atomic.Int64

// RunPartitions tries to smuggle partition worker goroutines into the
// kernel itself: sim-core bans goroutines and channels, so it fails.
func RunPartitions(parts []func()) {
	runs.Add(1)
	done := make(chan struct{}, len(parts)) // want `channel made in sim-core`
	for _, p := range parts {
		p := p
		go func() { // want `goroutine spawned in sim-core`
			p()
			done <- struct{}{} // want `channel send in sim-core`
		}()
	}
	for range parts {
		<-done // want `channel receive in sim-core`
	}
}

// Feed hands the parts to workers started elsewhere over a channel the
// caller made: no goroutine here, but the channel use is still banned.
func Feed(work chan func(), parts []func()) {
	var wg sync.WaitGroup
	wg.Add(len(parts))
	for _, p := range parts {
		work <- p // want `channel send in sim-core`
	}
	for f := range work { // want `channel receive in sim-core`
		f()
	}
	wg.Wait()
}

// Buffers makes a slice and a map with make: not channels, no finding.
func Buffers(n int) ([]int, map[int]bool) {
	return make([]int, n), make(map[int]bool, n)
}
